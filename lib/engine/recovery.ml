(* Startup recovery-path selection: checkpoint-chain + WAL-tail replay
   vs full snapshot + tail vs a full WAL replay from scratch. Replaying
   a record means running it through the planner's incremental apply —
   orders of magnitude more expensive than parsing it — so the model
   prices a path by the records it must APPLY plus the bytes it must
   parse back into a controller. *)

type choice = Snapshot_tail | Full_replay | Chain_tail

type estimate = {
  choice : choice;
  snapshot_seconds : float;
  replay_seconds : float;
  chain_seconds : float;
}

(* Seconds per record applied and per byte parsed, calibrated from
   BENCH_engine on the reference machine: the apply path costs
   ~15µs/record, and snapshot and chain text parse at ~80 MB/s,
   ~12ns/byte (both are checkpoint increments, so they share the
   rate). The point of the chooser is the RATIO, so rough constants
   already pick the right side except when two paths are within noise
   of each other — where either choice is fine. *)
let apply = 15e-6
let parse = 12e-9

let choose ?chain ~snapshot_bytes ~total_records ~covered () =
  let tail_cost covered = float (max 0 (total_records - covered)) *. apply in
  let snapshot_seconds =
    if snapshot_bytes < 0 then infinity
    else (float snapshot_bytes *. parse) +. tail_cost covered
  in
  let replay_seconds = float total_records *. apply in
  let chain_seconds =
    match chain with
    | Some (chain_bytes, chain_covered) ->
        (float chain_bytes *. parse) +. tail_cost chain_covered
    | None -> infinity
  in
  let choice =
    (* Ties break toward the shorter-tail path: chain, then snapshot. *)
    if chain_seconds <= snapshot_seconds && chain_seconds <= replay_seconds
    then Chain_tail
    else if snapshot_seconds <= replay_seconds then Snapshot_tail
    else Full_replay
  in
  { choice; snapshot_seconds; replay_seconds; chain_seconds }

let stat_bytes path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (in_channel_length ic))
  | exception Sys_error _ -> None

let assess ?chain_path ~snapshot_path ~total_records () =
  let chain =
    match chain_path with
    | None -> None
    | Some p -> (
        match Checkpoint.peek p with
        | Some (bytes, covered, _) when covered <= total_records ->
            Some (bytes, covered)
        | _ -> None)
  in
  match (stat_bytes snapshot_path, Snapshot.peek_deltas_applied snapshot_path)
  with
  | Some snapshot_bytes, Some covered when covered <= total_records ->
      choose ?chain ~snapshot_bytes ~total_records ~covered ()
  | _ ->
      (* No usable snapshot (missing, unreadable, no counters line, or
         ahead of the WAL — a stale WAL paired with a newer snapshot is
         not a tail-replay situation): chain or full replay. *)
      choose ?chain ~snapshot_bytes:(-1) ~total_records ~covered:0 ()

let choice_to_string = function
  | Snapshot_tail -> "snapshot+tail"
  | Full_replay -> "full-replay"
  | Chain_tail -> "chain+tail"

let note counters = function
  | Snapshot_tail -> Counters.note_recovery_path counters `Snapshot_tail
  | Full_replay -> Counters.note_recovery_path counters `Full_replay
  | Chain_tail -> Counters.note_recovery_path counters `Chain_tail
