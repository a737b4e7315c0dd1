(* Engine state snapshots: one checksummed frame whose body is the
   stream catalog (streams, budgets and costs, zero users) in Mmd.Io
   instance format, a %%increment marker, and one full checkpoint
   increment of the controller.

   Envelope: "mmd-engine-snapshot v3 <covers> <body-bytes> <crc32-hex>\n"
   followed by the body; the length catches truncation (a torn write
   that lost the tail) and the CRC catches corruption, each with a
   distinct error message. Loading rebuilds a view from the catalog
   and restores the increment onto it with the same decoder and
   installer checkpoint-chain recovery uses. *)

let magic_prefix = "mmd-engine-snapshot"
let tag = magic_prefix ^ " v3"
let marker = "%%increment\n"

let catalog view =
  let m = View.m view in
  Mmd.Instance.create ~name:(View.name view) ~mc:(View.mc view)
    ~server_cost:
      (Array.init (View.num_streams view) (fun s ->
           Array.init m (View.server_cost view s)))
    ~budget:(Array.init m (View.budget view))
    ~load:[||] ~capacity:[||] ~utility:[||] ~utility_cap:[||] ()

let save ctrl =
  let body =
    Mmd.Io.to_string (catalog (Controller.view ctrl))
    ^ marker
    ^ Checkpoint.full_increment ctrl
  in
  Checkpoint.frame_header ~tag ~covers:(Controller.deltas_applied ctrl) body
  ^ body

(* Offset of the marker line. The catalog's lines never start with
   '%', so the first line that does is the marker. *)
let rec find_marker body pos =
  match String.index_from_opt body pos '\n' with
  | None -> None
  | Some nl ->
      let start = nl + 1 in
      let n = String.length marker in
      if String.length body - start >= n && String.sub body start n = marker
      then Some start
      else find_marker body start

let load_result_impl text =
  let err fmt =
    Printf.ksprintf (fun msg -> Error ("Snapshot.load: " ^ msg)) fmt
  in
  match Checkpoint.read_frame ~tag text 0 with
  | Error (Checkpoint.Bad_header first) ->
      let first = String.sub first 0 (min 60 (String.length first)) in
      err "not a %s envelope (first line %S)" tag first
  | Error (Checkpoint.Truncated { have; want }) ->
      err "truncated snapshot (body %d of %d bytes) — torn write" have want
  | Error (Checkpoint.Corrupt { stored; actual }) ->
      err "snapshot checksum mismatch (stored %s, actual %s)" stored actual
  | Ok ({ Checkpoint.covers; body }, _) -> (
      match find_marker body 0 with
      | None -> err "missing %%increment section"
      | Some i -> (
          let start = i + String.length marker in
          let increment = String.sub body start (String.length body - start) in
          match Mmd.Io.of_string (String.sub body 0 i) with
          | exception Failure msg -> err "%s" msg
          | inst -> (
              match
                Checkpoint.restore_increment (View.of_instance inst) ~covers
                  increment
              with
              | Ok ctrl -> Ok ctrl
              | Error msg -> err "%s" msg)))

let load_result text =
  Obs.Span.with_ ~name:"snapshot.read" (fun () -> load_result_impl text)

let load text =
  match load_result text with Ok ctrl -> ctrl | Error msg -> failwith msg

let is_snapshot text = String.starts_with ~prefix:magic_prefix text

let previous_path path = path ^ ".prev"

let m_write_seconds = lazy (Obs.Metrics.histogram "snapshot_write_seconds")

let write_file path ctrl =
  Obs.Span.with_ ~name:"snapshot.write" (fun () ->
      let t0 = Obs.Clock.now () in
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (save ctrl));
      (* Keep the old generation around: if this write turns out torn
         or corrupted, [read_file_result] falls back to it. *)
      if Sys.file_exists path then Sys.rename path (previous_path path);
      Sys.rename tmp path;
      Obs.Hist.observe (Lazy.force m_write_seconds)
        (Obs.Clock.elapsed_since t0))

type generation = Current | Previous

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_file_result path =
  let try_load p =
    match read_all p with
    | text -> load_result text
    | exception Sys_error msg -> Error msg
  in
  match try_load path with
  | Ok ctrl -> Ok (ctrl, Current)
  | Error primary -> (
      let prev = previous_path path in
      if Sys.file_exists prev then
        match try_load prev with
        | Ok ctrl -> Ok (ctrl, Previous)
        | Error fallback ->
            Error
              (Printf.sprintf "%s; previous generation also unusable: %s"
                 primary fallback)
      else Error primary)

let read_file path =
  match read_file_result path with
  | Ok (ctrl, _) -> ctrl
  | Error msg -> failwith msg

(* The recovery chooser's cheap input: the coverage the envelope line
   declares, without verifying or parsing the body — the verified load
   happens after (and only if) the snapshot path is chosen. *)
let peek_deltas_applied path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match
            String.split_on_char ' ' (input_line ic)
            |> List.filter (fun s -> s <> "")
          with
          | [ p; "v3"; covers; _; _ ] when p = magic_prefix ->
              int_of_string_opt covers
          | _ | (exception End_of_file) -> None)
