(* The engine benchmark.

   Drives the engine the way [mmd_engine --wal-dir DIR --checkpoint-every
   N --batch B] does: decode each delta line, log it first
   ([Wal_store.append_tee ~flush:false] per record, one
   [Wal_store.flush] per batch), apply it ([Controller.apply_batch
   ~on_applied:Checkpoint.note]), checkpoint and compact on an
   interval, and at the end crash, recover and certify. The sharded
   workload sends the same lines through [Shard.Router] with per-shard
   WALs and one in-process follower per shard.

   Each run sets the engine up several times, then makes a closed-loop
   pass and an open-loop pass over the same log on two of the engines,
   and with tracing on a third, traced closed-loop pass. Layers are
   timed from outside, by spans the benchmark opens around its own
   calls into each layer's public functions; no library code is
   instrumented for it. *)

module C = Engine.Controller
module D = Engine.Delta
module R = Shard.Router
module Ws = Engine.Wal_store
module Ck = Engine.Checkpoint
module I = Inputs

let now = Clock.now

(* ----- files ----- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* ----- statistics ----- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an already sorted array. *)
let percentile sorted q =
  let n = Float.Array.length sorted in
  let rank = Float.to_int (Float.ceil (q *. float n)) in
  Float.Array.get sorted (max 0 (min (n - 1) (rank - 1)))

(* ----- engines ----- *)

type single = {
  ctrl : C.t;
  store : Ws.t;
  writer : Ck.writer;
  wal_dir : string;
  chain : string;
  every : int;  (** checkpoint interval *)
}

type engine = Single of single | Sharded of R.t

(* What the traced pass accumulates besides its spans. *)
type tracer = {
  spans : Spans.t;
  replan_hists : Obs.Hist.t list;
  kinds : (string, float * int) Hashtbl.t;
      (** per delta kind: controller seconds with replans excluded, count *)
  mutable replans : int;
  mutable replan_max : float;
  mutable decode_bytes : int;
  mutable wal_bytes : int;
  mutable max_lag : int;
}

(* Every [engine_replan_seconds] histogram in the registry: one per
   controller label set, so shards and followers are all included. *)
let replan_histograms () =
  List.filter_map
    (fun (name, _, inst) ->
      match inst with
      | Obs.Metrics.Histogram h when name = "engine_replan_seconds" -> Some h
      | _ -> None)
    (Obs.Metrics.snapshot ())

let make_tracer () =
  { spans = Spans.create ();
    replan_hists = replan_histograms ();
    kinds = Hashtbl.create 4;
    replans = 0;
    replan_max = 0.;
    decode_bytes = 0;
    wal_bytes = 0;
    max_lag = 0 }

let replan_seconds tr =
  List.fold_left (fun acc h -> acc +. Obs.Hist.sum h) 0. tr.replan_hists

let sp tr name f =
  match tr with None -> f () | Some t -> Spans.span t.spans name f

(* Attach the replan time spent inside span [id] as a child span. *)
let note_replan tr ~id ~before =
  let r = replan_seconds tr -. before in
  if r > 0. then begin
    Spans.child tr.spans ~parent:id "planner.replan" ~seconds:r;
    tr.replans <- tr.replans + 1;
    tr.replan_max <- Float.max tr.replan_max r
  end;
  r

let decode ?tr failed lines lo hi =
  sp tr "delta.decode" (fun () ->
      let acc = ref [] in
      for i = hi - 1 downto lo do
        match D.of_string_result lines.(i) with
        | Ok d -> acc := d :: !acc
        | Error _ -> incr failed
      done;
      (match tr with
      | Some t ->
          for i = lo to hi - 1 do
            t.decode_bytes <- t.decode_bytes + String.length lines.(i) + 1
          done
      | None -> ());
      !acc)

let log_batch ?tr e deltas =
  sp tr "wal.append" (fun () ->
      (match tr with
      | None -> List.iter (fun d -> ignore (Ws.append_tee ~flush:false e.store d)) deltas
      | Some t ->
          List.iter
            (fun d ->
              let _, line = Ws.append_tee ~flush:false e.store d in
              t.wal_bytes <- t.wal_bytes + String.length line + 1)
            deltas);
      Ws.flush e.store)

(* Per-kind controller cost needs single [Controller.apply] calls; a
   delta that fired a replan ([since_replan] back at 0) has the replan
   time the engine recorded subtracted. *)
let traced_apply t e d =
  let before = replan_seconds t in
  let id = Spans.enter t.spans "controller.apply" in
  let applied = C.apply e.ctrl d in
  Ck.note e.writer applied;
  Spans.leave t.spans id;
  let replan = if C.since_replan e.ctrl = 0 then note_replan t ~id ~before else 0. in
  let k = D.kind d in
  let s, n = Option.value (Hashtbl.find_opt t.kinds k) ~default:(0., 0) in
  Hashtbl.replace t.kinds k (s +. Spans.duration t.spans id -. replan, n + 1)

let apply_single ?tr e deltas =
  match tr with
  | None -> C.apply_batch ~on_applied:(Ck.note e.writer) e.ctrl deltas
  | Some t -> List.iter (traced_apply t e) deltas

let apply_sharded ?tr r deltas =
  match tr with
  | None -> R.apply_batch r deltas
  | Some t ->
      let before = replan_seconds t in
      let id = Spans.enter t.spans "router.apply" in
      Fun.protect
        ~finally:(fun () -> Spans.leave t.spans id)
        (fun () -> R.apply_batch r deltas);
      ignore (note_replan t ~id ~before);
      for i = 0 to R.num_shards r - 1 do
        match R.group r i with
        | Some g ->
            List.iter
              (fun f ->
                match Replica.Group.lag g f with
                | Some l -> t.max_lag <- max t.max_lag l
                | None -> ())
              (Replica.Group.live_followers g)
        | None -> ()
      done

(* Deltas the next batch may take before it would cross a checkpoint. *)
let room = function
  | Single e -> e.every - (C.deltas_applied e.ctrl mod e.every)
  | Sharded _ -> max_int

(* One batch through the durable pipeline: decode, log, apply, and
   checkpoint + compact when the interval is reached. *)
let process ?tr e failed lines lo hi =
  (match tr with Some t -> Spans.next_batch t.spans | None -> ());
  let deltas = decode ?tr failed lines lo hi in
  let guard f =
    try f () with Invalid_argument _ | Failure _ ->
      failed := !failed + List.length deltas
  in
  match e with
  | Single s ->
      log_batch ?tr s deltas;
      guard (fun () -> apply_single ?tr s deltas);
      if C.deltas_applied s.ctrl mod s.every = 0 then begin
        sp tr "checkpoint.write" (fun () -> Ck.checkpoint s.writer s.ctrl);
        sp tr "wal.compact" (fun () ->
            ignore (Ws.compact s.store ~covered:(Ck.covered s.writer)))
      end
  | Sharded r -> guard (fun () -> apply_sharded ?tr r deltas)

(* Closed loop over lines [lo, hi): the next batch starts when the
   previous one is durable and applied. Returns the wall seconds. *)
let closed_loop ?tr e failed lines ~lo ~hi ~batch =
  let n = hi in
  let t0 = now () in
  let i = ref lo in
  while !i < n do
    let k = min (min batch (n - !i)) (room e) in
    process ?tr e failed lines !i (!i + k);
    i := !i + k
  done;
  now () -. t0

let wait_until t =
  let rec go () =
    let gap = t -. now () in
    if gap > 0.002 then begin
      Unix.sleepf (gap -. 0.001);
      go ()
    end
    else if gap > 0. then begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

type open_result = {
  latencies : Float.Array.t;  (** sorted, seconds *)
  backlog_max : int;  (** most deltas already due when a batch started *)
}

(* Open loop over lines [lo, hi) at a fixed rate: line [lo + i] is due
   at [t0 + i / rate]. All lines already due form one batch (cut at a
   checkpoint boundary), and each is timed from when it was due until
   its batch is durable and applied, so a stall counts against every
   delta queued behind it. *)
let open_loop e failed lines ~lo ~hi ~rate =
  let lat = Float.Array.make (hi - lo) 0. in
  let t0 = now () +. 0.001 in
  let due i = t0 +. (float (i - lo) /. rate) in
  let backlog_max = ref 0 in
  let i = ref lo in
  while !i < hi do
    wait_until (due !i);
    let start = now () in
    let ready = min hi (lo + Float.to_int ((start -. t0) *. rate) + 1) in
    let ready = max ready (!i + 1) in
    backlog_max := max !backlog_max (ready - !i);
    let k = min (ready - !i) (room e) in
    process e failed lines !i (!i + k);
    let finish = now () in
    for j = !i to !i + k - 1 do
      Float.Array.set lat (j - lo) (finish -. due j)
    done;
    i := !i + k
  done;
  Float.Array.sort compare lat;
  { latencies = lat; backlog_max = !backlog_max }

(* ----- set-up ----- *)

let policy (spec : I.spec) = C.Every spec.every

(* Build the world, open the WAL store and checkpoint chain (or the
   sharded, replicated router with its per-shard WALs) and push the
   warm-up population through the same durable pipeline. *)
let setup (inp : I.t) ~dir failed =
  rm_rf dir;
  mkdir_p dir;
  let spec = inp.spec in
  Gc.full_major ();
  let t0 = now () in
  let e =
    match spec.kind with
    | I.Small | I.Large ->
        let ctrl = C.create ~policy:(policy spec) inp.world in
        let wal_dir = Filename.concat dir "wal" in
        let chain = Filename.concat dir "chain.ckpt" in
        Single
          { ctrl;
            store = Ws.open_dir wal_dir;
            writer = Ck.create_writer ~path:chain ctrl;
            wal_dir;
            chain;
            every = spec.checkpoint_every }
    | I.Sharded ->
        let tags = Array.init spec.shards (Printf.sprintf "rack%d") in
        let map = Shard.Shard_map.create ~seed:inp.seed ~tags () in
        Sharded
          (R.create ~policy:(policy spec) ~split:R.Even ~wal_dir:dir ~replicas:1
             ~heartbeat_every:I.heartbeat_every ~map inp.world)
  in
  ignore
    (closed_loop e failed inp.warmup ~lo:0 ~hi:(Array.length inp.warmup)
       ~batch:spec.batch);
  (e, now () -. t0)

let close = function
  | Single e ->
      Ws.close e.store;
      Ck.close_writer e.writer
  | Sharded r -> R.close r

(* ----- state comparison ----- *)

(* What "the same engine" means: plan text, utility bits and deltas
   applied, per shard for the router. *)
let ctrl_state c =
  ( Format.asprintf "%a" Mmd.Assignment.pp (C.plan c),
    Int64.bits_of_float (C.utility c),
    C.deltas_applied c )

let controllers = function
  | Single e -> [ e.ctrl ]
  | Sharded r -> List.init (R.num_shards r) (R.controller r)

let state e = List.map ctrl_state (controllers e)

(* [Controller.is_plan_feasible] materializes a dense num_slots x
   num_streams instance: 1.6 GB of heap at churn-large's 20k slots x
   1000 streams. Above [dense_cells] the same constraints (budgets over
   the plan's range, each slot's load against its capacity, with
   [Float_ops.leq]'s tolerance) are evaluated on the view directly;
   below it both run and must agree. *)
let dense_cells = 1_000_000

let sparse_feasible c =
  let v = C.view c and plan = C.plan c in
  let leq = Prelude.Float_ops.leq in
  let range = Mmd.Assignment.range plan in
  let budgets =
    List.for_all
      (fun i ->
        leq
          (List.fold_left (fun acc s -> acc +. Engine.View.server_cost v s i) 0. range)
          (Engine.View.budget v i))
      (List.init (Engine.View.m v) Fun.id)
  in
  budgets
  && List.for_all Fun.id
       (List.init (Mmd.Assignment.num_users plan) (fun u ->
            let streams = Mmd.Assignment.user_streams plan u in
            List.for_all
              (fun j ->
                leq
                  (List.fold_left (fun acc s -> acc +. Engine.View.load v u s j) 0. streams)
                  (Engine.View.capacity v u j))
              (List.init (Engine.View.mc v) Fun.id)))

let feasible c =
  let v = C.view c in
  let sparse = sparse_feasible c in
  if Engine.View.num_slots v * Engine.View.num_streams v <= dense_cells then
    sparse && C.is_plan_feasible c
  else sparse

let utility = function Single e -> C.utility e.ctrl | Sharded r -> R.utility r

let report = function
  | Single e -> C.report e.ctrl
  | Sharded r -> R.report r

(* ----- crash and recovery ----- *)

type recovered = {
  seconds : float;
  scaled : float;  (** [seconds] at the host's nominal speed *)
  same : bool;  (** bit-identical to the engine it replaces *)
  quarantined : int;
  tail_records : int;
}

(* Time the phases of a recovery, each between two host-speed probes,
   after a full major collection so that garbage left by earlier work is
   not collected inside it. [phase] runs one phase; [finish] returns raw
   and scaled seconds. *)
type phases = {
  phase : 'a. string -> (unit -> 'a) -> 'a;
  finish : unit -> float * float;
}

let phases ?tr () =
  Gc.full_major ();
  let raw = ref 0. and scaled = ref 0. in
  let slow = ref (Calib.slowdown ()) in
  let phase name f =
    let t0 = now () in
    let r = sp tr name f in
    let w = now () -. t0 in
    let s = Calib.slowdown () in
    raw := !raw +. w;
    scaled := !scaled +. (w /. ((!slow +. s) /. 2.));
    slow := s;
    r
  in
  { phase; finish = (fun () -> (!raw, !scaled)) }

(* Disk recovery the way [mmd_engine --wal-dir] starts: read the
   segment store, let [Recovery.assess] price the paths (a compacted
   store forces the chain), restore, and replay the WAL tail. The
   files are only read, so it can be repeated. *)
let recover_single ?tr (inp : I.t) e =
  let { phase; finish } = phases ?tr () in
  match phase "recovery.wal_read" (fun () -> Ws.recover_dir e.wal_dir) with
  | Error _ -> None
  | Ok r ->
      let est =
        phase "recovery.assess" (fun () ->
            Engine.Recovery.assess ~chain_path:e.chain
              ~snapshot_path:(Filename.concat e.wal_dir ".no-snapshot")
              ~total_records:r.Ws.last_seq ())
      in
      let choice =
        if r.Ws.first_seq > 1 then Engine.Recovery.Chain_tail
        else est.Engine.Recovery.choice
      in
      let restored =
        phase "recovery.restore" (fun () ->
            match choice with
            | Engine.Recovery.Chain_tail -> (
                match Ck.recover ~instance:inp.world ~path:e.chain with
                | Ok rc -> Some (rc.Ck.ctrl, rc.Ck.covered)
                | Error _ -> None)
            | Engine.Recovery.Full_replay ->
                Some (C.create ~policy:(policy inp.spec) inp.world, 0)
            | Engine.Recovery.Snapshot_tail -> None)
      in
      Option.map
        (fun (ctrl, covered) ->
          let tail =
            List.filter_map
              (fun (seq, d) -> if seq > covered then Some d else None)
              r.Ws.records
          in
          phase "recovery.tail_replay" (fun () -> C.apply_batch ctrl tail);
          let seconds, scaled = finish () in
          { seconds;
            scaled;
            same = ctrl_state ctrl = ctrl_state e.ctrl;
            quarantined = List.length r.Ws.quarantined;
            tail_records = List.length tail })
        restored

(* Replicated recovery. Filler re-announcements (broadcast, so every
   shard's epoch phase advances alike) keep each shard's next replan out
   of the crash tail; idle ticks bring every group to a heartbeat
   (followers fully caught up); the crash tail then reaches every shard
   unshipped, and each shard's primary is killed and its follower
   promoted, replaying exactly that tail and no replan. *)
let fail_over_all ?tr (inp : I.t) r failed =
  let n = R.num_shards r in
  let every = inp.spec.every and tail = Array.length inp.crash_tail in
  let epoch = List.init n (fun i -> C.since_replan (R.controller r i)) in
  let rec fill k =
    if k >= every then 0
    else if List.for_all (fun s -> ((s + k) mod every) + tail < every) epoch then k
    else fill (k + 1)
  in
  R.apply_batch r (decode failed inp.crash_fill 0 (fill 0));
  for i = 0 to n - 1 do
    match R.group r i with
    | Some g ->
        while Replica.Group.clock g mod I.heartbeat_every <> 0 do
          Replica.Group.tick g
        done
    | None -> ()
  done;
  let tail = decode failed inp.crash_tail 0 (Array.length inp.crash_tail) in
  R.apply_batch r tail;
  let before = Array.init n (fun i -> ctrl_state (R.controller r i)) in
  let { phase; finish } = phases ?tr () in
  let promoted =
    phase "replica.fail_over" (fun () ->
        List.for_all Fun.id
          (List.init n (fun i ->
               R.kill_primary r i;
               R.fail_over r i)))
  in
  let seconds, scaled = finish () in
  let same =
    promoted
    && List.for_all Fun.id
         (List.init n (fun i -> ctrl_state (R.controller r i) = before.(i)))
  in
  { seconds; scaled; same; quarantined = 0; tail_records = List.length tail }

let promote_seconds r =
  List.fold_left ( +. ) 0.
    (List.init (R.num_shards r) (fun i ->
         match R.group r i with
         | Some g -> Replica.Group.last_promote_seconds g
         | None -> 0.))

let certify ?tr e =
  sp tr "certify" (fun () ->
      match e with
      | Single s -> Engine.Certify.sparse ~achieved:(C.utility s.ctrl) (C.view s.ctrl)
      | Sharded r -> R.certify r)

(* ----- host ----- *)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | l -> (
            match String.index_opt l ':' with
            | Some i when String.trim (String.sub l 0 i) = "model name" ->
                String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | _ -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* Digest of the library sources, so a result names the code it
   measured even where no commit id is available. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        Array.sort compare names;
        Array.to_list names
        |> List.concat_map (fun f ->
               let p = Filename.concat dir f in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
               then [ p ]
               else [])
  in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (In_channel.with_open_bin p In_channel.input_all))
    (files "lib");
  Digest.to_hex (Digest.string (Buffer.contents b))

let fingerprint (spec : I.spec) ~seed =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu_model", cpu_model ());
    ("ocaml", Sys.ocaml_version);
    ("commit", Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"none");
    ("source_digest", source_digest ());
    ("domains", string_of_int spec.domains);
    ("seed", string_of_int seed) ]

(* ----- the run ----- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** end-to-end, or per-layer when traced *)
  extra : metric list;  (** reported in the record, not gated *)
  checks : (string * bool) list;
  host : (string * string) list;
  layer_table : (string * float * int) list;  (** name, self seconds, spans *)
  traced_wall : float;
}

let m name unit_ value = { name; value; unit_ }

let counter name = Obs.Metrics.sum_counter name
let hist_sum name = Obs.Hist.sum (Obs.Metrics.histogram name)

(* Nearest-rank quantile of unsorted samples. *)
let quantile xs q =
  let a = Float.Array.of_list xs in
  Float.Array.sort compare a;
  percentile a q

(* Two figures are read from the fastest decile of their scaled
   samples rather than the median. A chunk's p50 is mostly the service
   time of a one-delta batch, which in a slow spell rises by more than
   the probe does (the engine's utilization climbs with it). A crash
   sample is one short call that an interruption (a minor collection
   waiting on the idle pool domain, a scheduler tick) lengthens by a
   large share and the probes around it do not see. *)
let fastest_time xs = quantile xs 0.10

(* Run [f] between two host-speed probes: its result and the host's
   mean slowdown over the interval (see {!Calib}). *)
let probed f =
  let s0 = Calib.slowdown () in
  let r = f () in
  let s1 = Calib.slowdown () in
  (r, (s0 +. s1) /. 2.)

(* Slots (chunk indices) after which [k] events run, spread over [n]. *)
let spread ~k ~n = List.init k (fun i -> i * n / k)

let run ?(out = Filename.concat "perfbench" "_run") (spec : I.spec) ~seed ~seconds
    ~trace =
  Prelude.Pool.set_num_domains (Some spec.domains);
  let t_inputs = now () in
  let inp = I.make spec ~seed ~seconds in
  let inputs_s = now () -. t_inputs in
  let root = Filename.concat out spec.name in
  rm_rf root;
  mkdir_p root;
  let failed = ref 0 in
  let checks = ref [] in
  let check name ok =
    checks := (name, ok) :: !checks;
    if not ok then incr failed
  in
  let n = Array.length inp.log in
  (* Chunks. The passes interleave chunk by chunk (closed, open,
     traced), so a slow spell of the host falls on all of them alike. A
     full chunk is one checkpoint interval with the checkpoint in its
     middle (for the router, about four shard epochs), so every full
     chunk does about the same work. The lead-in before the first full
     chunk runs but is not counted. *)
  let lead = I.lead spec in
  let full = (n - lead) / spec.chunk in
  let chunk k = (lead + (k * spec.chunk), lead + ((k + 1) * spec.chunk)) in
  (* Set-ups: one engine per pass, then the crash images, then spare
     set-ups spread over the run; [setup_s] is their median. *)
  let setup_times = ref [] and setup_raw = ref [] and engines_made = ref 0 in
  let fresh () =
    let k = !engines_made in
    incr engines_made;
    let (e, s), slow =
      probed (fun () ->
          setup inp ~dir:(Filename.concat root (Printf.sprintf "engine-%d" k)) failed)
    in
    setup_times := (s /. slow) :: !setup_times;
    setup_raw := s :: !setup_raw;
    e
  in
  let a = fresh () in
  let b = fresh () in
  let c = if trace then Some (fresh ()) else None in
  (* Crash samples. Single engine: an image engine runs the lead-in and
     the first chunk, untimed, and its files (a crash half-way through a
     checkpoint interval) are recovered at points spread over the run,
     each time checked bit-identical to the image engine. Router: a
     fresh router is set up and crashed at points spread over the run,
     and the two pass routers are crashed at the end. *)
  let image =
    match a with
    | Single _ ->
        let d = fresh () in
        let lo, hi = chunk 0 in
        ignore (closed_loop d failed inp.log ~lo:0 ~hi:lo ~batch:spec.batch);
        ignore (closed_loop d failed inp.log ~lo ~hi ~batch:spec.batch);
        Some d
    | Sharded _ -> None
  in
  let recoveries = ref [] in
  let note_recovery = function
    | None -> check "recovered" false
    | Some rc ->
        check "recovered_bit_identical" rc.same;
        failed := !failed + rc.quarantined;
        recoveries := rc :: !recoveries
  in
  let crash_sample ?tr () =
    match image with
    | Some (Single d) -> note_recovery (sp tr "recover" (fun () -> recover_single ?tr inp d))
    | _ ->
        let r = fresh () in
        (match r with
        | Sharded r -> note_recovery (Some (fail_over_all ?tr inp r failed))
        | Single _ -> ());
        close r
  in
  let crash_at = spread ~k:spec.recoveries ~n:full in
  let spare = max 0 (spec.setups - !engines_made - (if image = None then spec.recoveries else 0)) in
  let setup_at = spread ~k:spare ~n:full in
  (* Passes. *)
  let t = if trace then Some (make_tracer ()) else None in
  let rep0 = Option.map report c in
  let closed_rates = ref [] and traced_rates = ref [] in
  let p50s = ref [] and p99s = ref [] and pooled = ref [] in
  let backlog_max = ref 0 and closed_wall = ref 0. in
  let minor_words = ref 0. and majors = ref 0 in
  let reg = Array.make 4 0. in
  let registry () =
    [| float (counter "planner_heap_pops_total");
       float (counter "checkpoint_bytes_total");
       float (counter "pool_tasks_total");
       hist_sum "pool_task_queue_delay_seconds" |]
  in
  let raw_rates = ref [] and raw_p50s = ref [] and raw_p99s = ref [] and probes = ref [] in
  (* Each pass goes through a chunk in pieces of [probe_every] deltas,
     each between two host-speed probes, so a change of host speed inside
     a long chunk is tracked piece by piece. *)
  let pieces (lo, hi) =
    let step = spec.probe_every in
    List.init ((hi - lo + step - 1) / step) (fun i ->
        (lo + (i * step), min hi (lo + ((i + 1) * step))))
  in
  let slow = ref (Calib.slowdown ()) in
  let probe () =
    let before = !slow in
    slow := Calib.slowdown ();
    probes := !slow :: !probes;
    (before +. !slow) /. 2.
  in
  let pass ~counted (lo, hi) =
    let wall = ref 0. and scaled = ref 0. in
    ignore (probe ());
    List.iter
      (fun (l, h) ->
        let g0 = Gc.quick_stat () in
        let w = closed_loop a failed inp.log ~lo:l ~hi:h ~batch:spec.batch in
        let g1 = Gc.quick_stat () in
        minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
        wall := !wall +. w;
        scaled := !scaled +. (w /. probe ()))
      (pieces (lo, hi));
    closed_wall := !closed_wall +. !wall;
    (* Arrivals are paced in nominal host time: on a host running [s]
       times slower the rate drops by [s], the utilization stays that of
       the nominal host, and the latencies scale back by the slowdown. *)
    let raw = ref [] and norm = ref [] in
    List.iter
      (fun (l, h) ->
        let ol = open_loop b failed inp.log ~lo:l ~hi:h ~rate:(spec.rate /. !slow) in
        let s = probe () in
        backlog_max := max !backlog_max ol.backlog_max;
        raw := ol.latencies :: !raw;
        norm := Float.Array.map (fun x -> x /. s) ol.latencies :: !norm)
      (pieces (lo, hi));
    let sorted l =
      let a = Float.Array.concat l in
      Float.Array.sort compare a;
      a
    in
    let raw = sorted !raw and norm = sorted !norm in
    pooled := raw :: !pooled;
    if counted then begin
      let n = float (hi - lo) in
      raw_rates := (n /. !wall) :: !raw_rates;
      closed_rates := (n /. !scaled) :: !closed_rates;
      raw_p50s := percentile raw 0.50 :: !raw_p50s;
      raw_p99s := percentile raw 0.99 :: !raw_p99s;
      p50s := percentile norm 0.50 :: !p50s;
      p99s := percentile norm 0.99 :: !p99s
    end;
    match (t, c) with
    | Some t, Some c ->
        let r0 = registry () in
        let id = Spans.enter t.spans "pass" in
        ignore (closed_loop ~tr:t c failed inp.log ~lo ~hi ~batch:spec.batch);
        Spans.leave t.spans id;
        Array.iteri (fun i x -> reg.(i) <- reg.(i) +. x -. r0.(i)) (registry ());
        if counted then
          traced_rates := (float (hi - lo) /. Spans.duration t.spans id) :: !traced_rates
    | _ -> ()
  in
  Gc.full_major ();
  if lead > 0 then pass ~counted:false (0, lead);
  for k = 0 to full - 1 do
    pass ~counted:true (chunk k);
    (* Between chunks, untimed by the passes: crash samples and spare
       set-ups, then a full major collection so their garbage is not
       collected inside the next chunk. *)
    List.iter (fun i -> if i = k then crash_sample ()) crash_at;
    List.iter (fun i -> if i = k then close (fresh ())) setup_at;
    Gc.full_major ()
  done;
  let table = Option.map (fun t -> Spans.self_times t.spans) t in
  let passes = if trace then 3 else 2 in
  (* Correctness of the live plan. *)
  check "open_closed_same_plan" (state a = state b);
  Option.iter (fun c -> check "traced_same_plan" (state a = state c)) c;
  check "plan_feasible" (List.for_all feasible (controllers a));
  let rep1 = Option.map report c in
  let tr = t in
  (* End of run: the routers crash (and count as samples); the single
     engine's image is recovered once more under tracing. *)
  let quiesce_s =
    match b with
    | Sharded r ->
        let t0 = now () in
        check "replicas_converge" (R.quiesce_replicas r);
        let q = now () -. t0 in
        note_recovery (Some (fail_over_all inp r failed));
        (match a with
        | Sharded ra -> note_recovery (Some (fail_over_all ?tr inp ra failed))
        | Single _ -> ());
        q
    | Single _ ->
        if trace then crash_sample ?tr ();
        0.
  in
  let recs = List.rev !recoveries in
  let recover_s = fastest_time (List.map (fun rc -> rc.scaled) recs) in
  let certificate = certify ?tr a in
  check "certificate_accepted" (Result.is_ok certificate);
  let certified_ratio, cert_iters =
    match certificate with
    | Ok (o, _) -> (o.Engine.Certify.ratio, o.Engine.Certify.iterations)
    | Error _ -> (nan, 0)
  in
  let util = utility a in
  let heap_peak_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let attempted = passes * n in
  let pooled = Float.Array.concat !pooled in
  Float.Array.sort compare pooled;
  let deltas_per_s = median !closed_rates in
  let e2e =
    [ m "setup_s" "s" (median !setup_times);
      m "deltas_per_s" "1/s" deltas_per_s;
      m "lat_p50_ms" "ms" (1000. *. fastest_time !p50s);
      m "lat_p99_ms" "ms" (1000. *. median !p99s);
      m "recover_s" "s" recover_s;
      m "utility" "utility" util;
      m "certified_ratio" "ratio" certified_ratio;
      m "heap_peak_mb" "MiB" heap_peak_mb;
      m "ok_rate" "fraction" (1. -. (float !failed /. float attempted)) ]
  in
  let extra =
    [ m "error_rate" "fraction" (float !failed /. float attempted);
      m "lat_samples" "count" (float (Float.Array.length pooled));
      m "lat_chunk_samples" "count" (float spec.chunk);
      m "host_slowdown_median" "ratio" (median !probes);
      m "host_slowdown_min" "ratio" (quantile !probes 0.);
      m "raw_setup_s" "s" (median !setup_raw);
      m "raw_deltas_per_s" "1/s" (median !raw_rates);
      m "raw_lat_p50_ms" "ms" (1000. *. fastest_time !raw_p50s);
      m "raw_lat_p99_ms" "ms" (1000. *. median !raw_p99s);
      m "raw_recover_s" "s" (median (List.map (fun rc -> rc.seconds) recs));
      m "lat_pooled_p50_ms" "ms" (1000. *. percentile pooled 0.50);
      m "lat_pooled_p99_ms" "ms" (1000. *. percentile pooled 0.99);
      m "whole_log_deltas_per_s" "1/s" (float n /. !closed_wall);
      m "recover_samples" "count" (float (List.length recs));
      m "setups" "count" (float (List.length !setup_times));
      m "log_deltas" "count" (float n);
      m "chunks" "count" (float full);
      m "inputs_s" "s" inputs_s ]
  in
  let layers, layer_table, traced_wall =
    match (t, table, rep0, rep1) with
    | Some t, Some table, Some rep0, Some rep1 ->
        let self name =
          List.fold_left (fun acc (n, s, _) -> if n = name then acc +. s else acc) 0. table
        in
        let total = Spans.total t.spans in
        let traced_wall = total "pass" in
        let coverage = 100. *. (1. -. (self "pass" /. traced_wall)) in
        check "trace_coverage_95" (coverage >= 95.);
        let kind_us k =
          match Hashtbl.find_opt t.kinds k with
          | Some (s, c) when c > 0 -> 1e6 *. s /. float c
          | _ -> 0.
        in
        let counts = match a with Sharded r -> R.counts r | Single _ -> [||] in
        let skew =
          if Array.length counts = 0 then 0.
          else
            float (Array.fold_left max 0 counts)
            /. float (max 1 (Array.fold_left min max_int counts))
        in
        let loss_pct =
          match a with
          | Sharded r ->
              let g, _ = R.global_scratch r in
              if g > 0. then 100. *. (1. -. (util /. g)) else 0.
          | Single _ -> 0.
        in
        let tail_records = match List.rev recs with rc :: _ -> rc.tail_records | [] -> 0 in
        let evals = rep1.Engine.Counters.evals - rep0.Engine.Counters.evals in
        let eager = rep1.Engine.Counters.eager_equiv - rep0.Engine.Counters.eager_equiv in
        let layers =
          [ m "delta.decode_s" "s" (self "delta.decode");
            m "delta.bytes" "bytes" (float t.decode_bytes);
            m "wal.append_s" "s" (self "wal.append");
            m "wal.bytes" "bytes" (float t.wal_bytes);
            m "wal.compact_s" "s" (self "wal.compact");
            m "controller.apply_s" "s" (self "controller.apply");
            m "controller.join_us" "us" (kind_us "join");
            m "controller.leave_us" "us" (kind_us "leave");
            m "controller.cost_us" "us" (kind_us "cost");
            m "controller.budget_us" "us" (kind_us "budget");
            m "controller.evictions" "count"
              (float (rep1.Engine.Counters.evictions - rep0.Engine.Counters.evictions));
            m "planner.replan_s" "s" (self "planner.replan");
            m "planner.replans" "count" (float t.replans);
            m "planner.replan_max_ms" "ms" (1000. *. t.replan_max);
            m "planner.evals" "count" (float evals);
            m "planner.heap_pops" "count" reg.(0);
            m "planner.lazy_ratio" "ratio" (if eager > 0 then float evals /. float eager else 0.);
            m "checkpoint.write_s" "s" (self "checkpoint.write");
            m "checkpoint.bytes" "bytes" reg.(1);
            m "recovery.assess_s" "s" (total "recovery.assess");
            m "recovery.restore_s" "s" (total "recovery.restore");
            m "recovery.wal_read_s" "s" (total "recovery.wal_read");
            m "recovery.tail_replay_s" "s" (total "recovery.tail_replay");
            m "recovery.tail_records" "count" (float tail_records);
            m "certify.s" "s" (total "certify");
            m "certify.iterations" "count" (float cert_iters);
            m "router.apply_s" "s" (self "router.apply");
            m "router.shard_skew" "ratio" skew;
            m "router.loss_pct" "%" loss_pct;
            m "replica.quiesce_s" "s" quiesce_s;
            m "replica.max_lag_records" "count" (float t.max_lag);
            m "replica.promote_s" "s"
              (match a with Sharded r -> promote_seconds r | Single _ -> 0.);
            m "pool.tasks" "count" reg.(2);
            m "pool.queue_delay_s" "s" reg.(3);
            m "gc.minor_words_per_delta" "words" (!minor_words /. float n);
            m "gc.major_collections" "count" (float !majors);
            m "driver.backlog_max" "count" (float !backlog_max);
            m "driver.lat_samples" "count" (float (Float.Array.length pooled));
            m "obs.trace_overhead_pct" "%"
              (100. *. (median !raw_rates -. median !traced_rates) /. median !raw_rates);
            m "trace.coverage_pct" "%" coverage ]
        in
        Spans.write t.spans (Filename.concat root "spans.tsv");
        (layers, table, traced_wall)
    | _ -> ([], [], 0.)
  in
  List.iter close (a :: b :: Option.to_list c @ Option.to_list image);
  { workload = spec.name;
    correct = !failed = 0 && List.for_all snd !checks;
    attempted;
    failed = !failed;
    metrics = (if trace then layers else e2e);
    extra = (if trace then e2e @ extra else extra);
    checks = List.rev !checks;
    host = fingerprint spec ~seed;
    layer_table;
    traced_wall }

(* ----- output ----- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_float x.value) (json_string x.unit_))
         ms)
  ^ "}"

(* The result line: exactly correct / attempted / failed / metrics. *)
let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    r.correct r.attempted r.failed (json_metrics r.metrics)

(* The full record: host fingerprint, checks and every figure. *)
let record_line r ~seconds ~trace =
  let obj kvs = "{" ^ String.concat ", " kvs ^ "}" in
  obj
    [ "\"record\": "
      ^ obj
          ([ Printf.sprintf "\"workload\": %s" (json_string r.workload);
             Printf.sprintf "\"seconds\": %s" (json_float seconds);
             Printf.sprintf "\"trace\": %b" trace;
             Printf.sprintf "\"host\": %s"
               (obj
                  (List.map
                     (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v))
                     r.host));
             Printf.sprintf "\"checks\": %s"
               (obj
                  (List.map
                     (fun (k, v) -> Printf.sprintf "%s: %b" (json_string k) v)
                     r.checks));
             Printf.sprintf "\"extra\": %s" (json_metrics r.extra) ]) ]

(* Self time per layer as a fixed-width table, largest first. *)
let layer_table_text r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "self time by layer, %s, traced closed-loop wall %.4f s\n" r.workload
    r.traced_wall;
  Printf.bprintf b "%-22s %12s %8s %10s\n" "span" "self_s" "share%" "spans";
  List.iter
    (fun (n, s, c) ->
      Printf.bprintf b "%-22s %12.6f %8.2f %10d\n" n s
        (if r.traced_wall > 0. then 100. *. s /. r.traced_wall else 0.)
        c)
    r.layer_table;
  Buffer.contents b
