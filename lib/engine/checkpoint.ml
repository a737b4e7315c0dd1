(* Incremental snapshots: an append-only chain of delta-encoded
   checkpoint increments — and the engine's only encoding of
   controller state (a Snapshot is one full increment over a
   catalog-only instance).

   A dense materialized instance — num_slots x num_streams utility and
   load matrices — costs more to parse than replaying the log it
   summarizes (BENCH_resilience once measured dense-snapshot recovery
   at 0.59x of full WAL replay at 4k deltas). An increment never writes
   the dense view. Instead it records

   - the view {e diff} since the parent increment: the final spec of
     every slot that churned in the window, the slots freed, changed
     cost rows, the budget when it changed, and the exact free-list
     order — against the initial instance this chain of diffs rebuilds
     the live view exactly;
   - the {e full} controller/planner state, which is small: the plan
     (delivered sets), the admitted set, the path-dependent float
     accumulators in hex, counters, histograms and the epoch phase.

   Recovery is [View.of_instance] on the initial instance (an
   in-memory copy, free), the view diffs applied in order, and the
   last increment's controller state installed — no dense parse, no
   replan, no planner bookkeeping per record. The WAL tail beyond the
   last increment replays through the ordinary path, so the result is
   bit-identical to a full replay; segments the chain covers can be
   deleted by [Wal_store.compact].

   File format (all text, floats in lossless %h hex):

     mmd-engine-checkpoint v1
     I <covers> <body-bytes> <crc32-hex>
     <body>
     I ...

   Each increment is framed independently; a torn or corrupt increment
   invalidates itself and everything after it (later diffs build on
   it), and recovery falls back to the longest valid prefix — the WAL
   tail just gets longer, exactly like a missed snapshot. *)

let magic = "mmd-engine-checkpoint v1"

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let int_tok what tok =
  match int_of_string_opt tok with
  | Some x -> x
  | None -> fail "bad %s %S" what tok

let float_tok what tok =
  match float_of_string_opt tok with
  | Some x -> x
  | None -> fail "bad %s %S" what tok

(* ------------------------------------------------------------------ *)
(* Frames *)

type frame = { covers : int; body : string }

type frame_error =
  | Bad_header of string
  | Truncated of { have : int; want : int }
  | Corrupt of { stored : string; actual : string }

let frame_header ~tag ~covers body =
  Printf.sprintf "%s %d %d %s\n" tag covers (String.length body)
    (Prelude.Crc32.to_hex (Prelude.Crc32.digest body))

let line_end text pos =
  Option.value
    (String.index_from_opt text pos '\n')
    ~default:(String.length text)

let read_frame ~tag text pos =
  let len = String.length text in
  let hdr_end = line_end text pos in
  let hdr = String.sub text pos (hdr_end - pos) in
  let fields =
    let n = String.length tag in
    if String.length hdr > n && String.sub hdr 0 n = tag && hdr.[n] = ' '
    then
      String.split_on_char ' ' (String.sub hdr n (String.length hdr - n))
      |> List.filter (fun s -> s <> "")
    else []
  in
  match fields with
  | [ covers; blen; crc ] -> (
      match
        ( int_of_string_opt covers,
          int_of_string_opt blen,
          Prelude.Crc32.of_hex crc )
      with
      | Some covers, Some want, Some stored when want >= 0 ->
          let start = hdr_end + 1 in
          let have = max 0 (len - start) in
          if have < want then Error (Truncated { have; want })
          else
            let body = String.sub text start want in
            let actual = Prelude.Crc32.digest body in
            if actual <> stored then
              Error
                (Corrupt { stored = crc; actual = Prelude.Crc32.to_hex actual })
            else Ok ({ covers; body }, start + want)
      | _ -> Error (Bad_header hdr))
  | _ -> Error (Bad_header hdr)

(* Split the chain into CRC-validated frames. Returns the valid prefix
   and whether a torn/corrupt suffix was discarded. *)
let scan_frames text =
  let len = String.length text in
  let first_nl = line_end text 0 in
  if first_nl >= len || String.sub text 0 first_nl <> magic then
    Error "not a checkpoint chain (bad magic)"
  else
    let rec go pos acc =
      if pos >= len then (List.rev acc, false)
      else
        let hdr_end = line_end text pos in
        if String.trim (String.sub text pos (hdr_end - pos)) = "" then
          go (hdr_end + 1) acc
        else
          match read_frame ~tag:"I" text pos with
          | Ok (frame, next) -> go next (frame :: acc)
          | Error _ -> (List.rev acc, true)
    in
    Ok (go (first_nl + 1) [])

let read_all path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

(* Cheap structural peek for the recovery chooser: the chain's size
   and the coverage of its last valid increment, without building a
   view. *)
let peek path =
  match read_all path with
  | None -> None
  | Some text -> (
      match scan_frames text with
      | Error _ | Ok ([], _) -> None
      | Ok (frames, _) ->
          let last = List.nth frames (List.length frames - 1) in
          Some (String.length text, last.covers, List.length frames))

(* ------------------------------------------------------------------ *)
(* Writer *)

(* What changed since the parent increment. *)
type dirty = {
  slots : (int, unit) Hashtbl.t;
  costs : (int, unit) Hashtbl.t;
  mutable budget : bool;
  mutable all_costs : bool;
}

type writer = {
  path : string;
  oc : out_channel;
  dirty : dirty;
  mutable covered : int;
  mutable increments : int;
}

let clean () =
  { slots = Hashtbl.create 64;
    costs = Hashtbl.create 16;
    budget = false;
    all_costs = false }

(* A dirty-everything increment records every active slot, every
   inactive slot as freed, all costs, the budget and the full free
   order, so it restores correctly on top of ANY parent state over the
   same catalog. *)
let dirty_everything d (ctrl : Controller.t) =
  for u = 0 to View.num_slots (Controller.view ctrl) - 1 do
    Hashtbl.replace d.slots u ()
  done;
  d.all_costs <- true;
  d.budget <- true

let create_writer ~path ctrl =
  let fresh = not (Sys.file_exists path) in
  let prior = if fresh then None else peek path in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644
      path
  in
  if fresh then begin
    output_string oc magic;
    output_char oc '\n';
    flush oc
  end;
  let prior_covered, prior_increments =
    match prior with Some (_, c, n) -> (c, n) | None -> (0, 0)
  in
  let w =
    { path;
      oc;
      dirty = clean ();
      covered = prior_covered;
      increments = prior_increments }
  in
  (* The chain's implicit parent is its last valid increment — or, for
     a fresh file, the initial instance at zero deltas. Whenever the
     controller is anywhere else (resumed past the last increment, or
     a fresh chain for a warm controller), the first increment must
     carry the whole distance. *)
  if Controller.deltas_applied ctrl <> prior_covered || (fresh && prior_covered > 0)
  then dirty_everything w.dirty ctrl;
  w

let note w (applied : View.applied) =
  match applied with
  | View.Joined u | View.Left u -> Hashtbl.replace w.dirty.slots u ()
  | View.Cost_changed s -> Hashtbl.replace w.dirty.costs s ()
  | View.Budgets_resized ->
      (* A resize clamps every cost row, so they are all dirty. *)
      w.dirty.budget <- true;
      w.dirty.all_costs <- true

let sorted_keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare

let m_checkpoint_seconds = lazy (Obs.Metrics.histogram "checkpoint_write_seconds")
let m_checkpoint_bytes = lazy (Obs.Metrics.counter "checkpoint_bytes_total")

let body_of d ctrl =
  let view = Controller.view ctrl in
  let planner = Controller.planner ctrl in
  let mc = View.mc view and m = View.m view in
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let floats a =
    String.concat "" (List.map (Printf.sprintf " %h") (Array.to_list a))
  in
  let ints l = String.concat "" (List.map (Printf.sprintf " %d") l) in
  addf "nslots %d\n" (View.num_slots view);
  addf "policy %s\n" (Controller.policy_to_string (Controller.policy ctrl));
  (match Controller.pinned ctrl with
  | [] -> ()
  | pinned -> addf "pinned%s\n" (ints pinned));
  if d.budget then
    addf "budget%s\n"
      (floats (Array.init m (fun i -> View.budget view i)));
  let cost_rows =
    if d.all_costs then List.init (View.num_streams view) Fun.id
    else sorted_keys d.costs
  in
  List.iter
    (fun s ->
      addf "cost %d%s\n" s
        (floats (Array.init m (fun i -> View.server_cost view s i))))
    cost_rows;
  let dirty = sorted_keys d.slots in
  (match List.filter (fun u -> not (View.is_active view u)) dirty with
  | [] -> ()
  | freed -> addf "freed%s\n" (ints freed));
  List.iter
    (fun u ->
      if View.is_active view u then begin
        let spec = View.user_spec view u in
        addf "slot %d %h%s %d" u spec.Delta.utility_cap
          (floats spec.Delta.capacity)
          (List.length spec.Delta.interests);
        List.iter
          (fun (s, wu, loads) ->
            if Array.length loads <> mc then
              invalid_arg "Checkpoint: spec loads arity <> mc";
            addf " %d %h%s" s wu (floats loads))
          spec.Delta.interests;
        addf "\n"
      end)
    dirty;
  addf "free%s\n" (ints (View.free_list view));
  let j, l, c, b, r, e = Counters.fields (Controller.counters ctrl) in
  let ft, q, rec_, fb = Counters.resilience_fields (Controller.counters ctrl) in
  addf "counters %d %d %d %d %d %d %d %d %d %d %d %d %d\n" j l c b r e
    (Planner.evals planner)
    (Planner.eager_equiv planner)
    (Controller.deltas_applied ctrl)
    ft q rec_ fb;
  addf "epoch %d %.17g\n"
    (Controller.since_replan ctrl)
    (Controller.utility_at_replan ctrl);
  let cs = Controller.counters ctrl in
  if Obs.Hist.count (Counters.replan_hist cs) > 0 then
    addf "hist replan %s\n" (Obs.Hist.encode (Counters.replan_hist cs));
  if Obs.Hist.count (Counters.recovery_hist cs) > 0 then
    addf "hist recovery %s\n" (Obs.Hist.encode (Counters.recovery_hist cs));
  let ptotal, pused, pslots = Planner.float_state planner in
  addf "pstate %h%s\n" ptotal (floats pused);
  Array.iteri
    (fun u (du, cap, cu) -> addf "pslot %d %h %h%s\n" u du cap (floats cu))
    pslots;
  (match Planner.admitted planner with
  | [] -> ()
  | streams -> addf "admitted%s\n" (ints streams));
  addf "%%%%plan\n%s" (Mmd.Io.assignment_to_string (Controller.plan ctrl));
  Buffer.contents buf

let full_increment ctrl =
  let d = clean () in
  dirty_everything d ctrl;
  body_of d ctrl

let checkpoint w ctrl =
  Obs.Span.with_ ~name:"checkpoint.write" (fun () ->
      let t0 = Obs.Clock.now () in
      let body = body_of w.dirty ctrl in
      output_string w.oc
        (frame_header ~tag:"I" ~covers:(Controller.deltas_applied ctrl) body);
      output_string w.oc body;
      flush w.oc;
      Hashtbl.reset w.dirty.slots;
      Hashtbl.reset w.dirty.costs;
      w.dirty.budget <- false;
      w.dirty.all_costs <- false;
      w.covered <- Controller.deltas_applied ctrl;
      w.increments <- w.increments + 1;
      Obs.Metrics.inc
        ~n:(String.length body)
        (Lazy.force m_checkpoint_bytes);
      Obs.Hist.observe
        (Lazy.force m_checkpoint_seconds)
        (Obs.Clock.elapsed_since t0))

let covered w = w.covered
let increments w = w.increments
let close_writer w = close_out w.oc
let writer_path w = w.path

(* ------------------------------------------------------------------ *)
(* Reading *)

type parsed = {
  nslots : int;
  policy : Controller.epoch_policy;
  pinned : int list;
  budget : float array option;
  costs : (int * float array) list;
  freed : int list;
  slots : (int * Delta.user_spec) list;
  free : int list;
  counters : int * int * int * int * int * int * int * int;
  resilience : int * int * int * int;
  epoch : int * float;
  replan_hist : Obs.Hist.t option;
  recovery_hist : Obs.Hist.t option;
  pstate : float * float array;
  pslots : (float * float * float array) array;
  admitted : int list;
  plan : string;
}

let parse_slot_line ~mc = function
  | u :: ucap :: rest ->
      let u = int_tok "slot id" u in
      let ucap = float_tok "slot utility cap" ucap in
      if List.length rest < mc + 1 then fail "short slot line for %d" u;
      let rec split n acc rest =
        if n = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> fail "short slot line for %d" u
          | x :: tl -> split (n - 1) (float_tok "slot capacity" x :: acc) tl
      in
      let caps, rest = split mc [] rest in
      let k, rest =
        match rest with
        | k :: tl -> (int_tok "interest count" k, tl)
        | [] -> fail "short slot line for %d" u
      in
      let rec interests n acc rest =
        if n = 0 then (
          if rest <> [] then fail "trailing tokens on slot line for %d" u;
          List.rev acc)
        else
          match rest with
          | s :: wu :: tl ->
              let s = int_tok "interest stream" s in
              let wu = float_tok "interest utility" wu in
              let loads, tl = split mc [] tl in
              interests (n - 1) ((s, wu, Array.of_list loads) :: acc) tl
          | _ -> fail "short slot line for %d" u
      in
      let ints = interests k [] rest in
      ( u,
        { Delta.utility_cap = ucap;
          capacity = Array.of_list caps;
          interests = ints } )
  | _ -> fail "bad slot line"

(* The one decoder for controller state. Every line but the sparse ones
   (pinned, budget, cost, freed, slot, hist, admitted) is required; the
   pslot array is filled as the lines arrive, one line per slot. *)
let decode ~mc { covers; body } =
  let header, plan_lines =
    let rec split acc = function
      | [] -> fail "increment missing %%plan section"
      | "%%plan" :: rest -> (List.rev acc, rest)
      | line :: rest -> split (line :: acc) rest
    in
    split [] (String.split_on_char '\n' body)
  in
  let nslots = ref None in
  let policy = ref None in
  let pinned = ref [] in
  let budget = ref None in
  let costs = ref [] in
  let freed = ref [] in
  let slots = ref [] in
  let free_order = ref None in
  let counters = ref None in
  let epoch = ref None in
  let replan_hist = ref None in
  let recovery_hist = ref None in
  let pstate = ref None in
  let pslots = ref [||] in
  let admitted = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [] -> ()
      | [ "nslots"; n ] ->
          let n = int_tok "nslots" n in
          if n < 0 then fail "negative nslots %d" n;
          nslots := Some n;
          pslots := Array.make n None
      | "policy" :: spec -> (
          match Controller.policy_of_string (String.concat ":" spec) with
          | Ok p -> policy := Some p
          | Error msg -> fail "%s" msg)
      | "pinned" :: ids -> pinned := List.map (int_tok "pinned id") ids
      | "budget" :: bs ->
          budget := Some (Array.of_list (List.map (float_tok "budget") bs))
      | "cost" :: s :: cs ->
          costs :=
            ( int_tok "cost stream" s,
              Array.of_list (List.map (float_tok "cost") cs) )
            :: !costs
      | "freed" :: ids -> freed := List.map (int_tok "freed slot") ids
      | "slot" :: rest -> slots := parse_slot_line ~mc rest :: !slots
      | "free" :: ids -> free_order := Some (List.map (int_tok "free slot") ids)
      | "counters" :: fields -> (
          match List.map (int_tok "counter") fields with
          | [ j; l; c; b; r; e; evals; eager; deltas; ft; q; rec_; fb ] ->
              if deltas <> covers then
                fail "counters cover %d deltas but the frame covers %d" deltas
                  covers;
              counters :=
                Some ((j, l, c, b, r, e, evals, eager), (ft, q, rec_, fb))
          | _ -> fail "counters expects 13 fields")
      | [ "epoch"; since; util ] ->
          epoch :=
            Some (int_tok "epoch phase" since, float_tok "epoch utility" util)
      | "hist" :: which :: encoded -> (
          match Obs.Hist.decode (String.concat " " encoded) with
          | Error msg -> fail "bad %s histogram: %s" which msg
          | Ok h -> (
              match which with
              | "replan" -> replan_hist := Some h
              | "recovery" -> recovery_hist := Some h
              | other -> fail "unknown histogram %S" other))
      | "pstate" :: total :: used ->
          pstate :=
            Some
              ( float_tok "planner total" total,
                Array.of_list (List.map (float_tok "planner used") used) )
      | "pslot" :: u :: du :: cap :: cus ->
          let u = int_tok "planner slot" u in
          if u < 0 || u >= Array.length !pslots then
            fail "pslot line for slot %d outside nslots %d" u
              (Array.length !pslots);
          if !pslots.(u) <> None then fail "duplicate pslot line for slot %d" u;
          !pslots.(u) <-
            Some
              ( float_tok "slot delivered utility" du,
                float_tok "slot capped utility" cap,
                Array.of_list (List.map (float_tok "slot capacity used") cus) )
      | "admitted" :: ids ->
          admitted := List.map (int_tok "admitted stream") ids
      | kw :: _ -> fail "unknown increment keyword %S" kw)
    header;
  let need what = function
    | Some x -> x
    | None -> fail "increment missing %s line" what
  in
  let counters, resilience = need "counters" !counters in
  { nslots = need "nslots" !nslots;
    policy = need "policy" !policy;
    pinned = !pinned;
    budget = !budget;
    costs = List.rev !costs;
    freed = !freed;
    slots = List.rev !slots;
    free = need "free" !free_order;
    counters;
    resilience;
    epoch = need "epoch" !epoch;
    replan_hist = !replan_hist;
    recovery_hist = !recovery_hist;
    pstate = need "pstate" !pstate;
    pslots =
      Array.mapi
        (fun u -> function
          | Some s -> s
          | None -> fail "slot %d has no pslot line" u)
        !pslots;
    admitted = !admitted;
    plan = String.concat "\n" plan_lines ^ "\n" }

(* Apply one increment's view diff. Budget first, then cost rows —
   both through the ordinary delta path: the recorded values are the
   {e final} clamped state, so the clamp View.apply re-runs is a
   no-op. Then slot churn, then the free order. *)
let apply_view_diff view p =
  View.ensure_slots_raw view p.nslots;
  Option.iter
    (fun b -> ignore (View.apply view (Delta.Budget_resize b)))
    p.budget;
  List.iter
    (fun (s, costs) ->
      ignore (View.apply view (Delta.Stream_cost_change { stream = s; costs })))
    p.costs;
  List.iter (fun u -> View.clear_slot_raw view u) p.freed;
  List.iter (fun (u, spec) -> View.restore_slot view u spec) p.slots;
  View.set_free_raw view p.free

(* Build the controller from one increment's state around [view]. *)
let install view ~covers p =
  let plan =
    Mmd.Io.assignment_of_string ~num_users:(View.num_slots view) p.plan
  in
  let since_replan, utility_at_replan = p.epoch in
  let ctrl =
    Controller.of_state ~since_replan ~deltas_applied:covers ~utility_at_replan
      ~admitted:p.admitted ~policy:p.policy ~pinned:p.pinned ~view ~plan ()
  in
  let cs = Controller.counters ctrl in
  let ( joins, leaves, cost_changes, budget_resizes, replans, evictions,
        evals, eager ) =
    p.counters
  in
  Counters.restore cs ~joins ~leaves ~cost_changes ~budget_resizes ~replans
    ~evictions;
  Planner.add_evals (Controller.planner ctrl) ~evals ~eager_equiv:eager;
  let faults, quarantined, recoveries, fallbacks = p.resilience in
  Counters.restore_resilience cs ~faults ~quarantined ~recoveries ~fallbacks;
  Option.iter (Counters.set_replan_hist cs) p.replan_hist;
  Option.iter (Counters.set_recovery_hist cs) p.recovery_hist;
  let total, used = p.pstate in
  Planner.set_float_state (Controller.planner ctrl) ~total ~used
    ~slots:p.pslots;
  ctrl

(* Every frame's diff in order, then the last frame's controller state.
   [frames] is non-empty. *)
let restore_frames view frames =
  let rec go = function
    | [] -> invalid_arg "Checkpoint: no frames"
    | frame :: rest ->
        let p = decode ~mc:(View.mc view) frame in
        apply_view_diff view p;
        if rest = [] then install view ~covers:frame.covers p else go rest
  in
  go frames

let guard f =
  try Ok (f ()) with
  | Parse_error msg | Invalid_argument msg | Failure msg -> Error msg

let restore_increment view ~covers body =
  guard (fun () -> restore_frames view [ { covers; body } ])

type recovered = {
  ctrl : Controller.t;
  covered : int;  (** deltas applied at the restored increment *)
  increments : int;  (** increments applied *)
  torn : bool;  (** a torn/corrupt suffix was discarded *)
}

let recover ~instance ~path =
  Obs.Span.with_ ~name:"checkpoint.recover" (fun () ->
      let ( let* ) = Result.bind in
      let* text =
        Option.to_result ~none:(Printf.sprintf "cannot read %s" path)
          (read_all path)
      in
      let* frames, torn = scan_frames text in
      let* ctrl =
        if frames = [] then Error "no valid increments"
        else guard (fun () -> restore_frames (View.of_instance instance) frames)
      in
      Ok { ctrl; covered = Controller.deltas_applied ctrl;
           increments = List.length frames; torn })
  |> Result.map_error (fun msg -> "Checkpoint.recover: " ^ msg)
