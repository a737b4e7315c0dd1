(* Startup recovery-path selection by coverage: restore the checkpoint
   artifact (the chain's last valid increment or the snapshot) that
   covers the most of the WAL, then replay the rest. *)

type choice = Snapshot_tail | Full_replay | Chain_tail
type decision = { choice : choice; covers : int }

let choose ?chain ?snapshot ~first_seq ~last_seq () =
  let usable choice = function
    | Some covers when first_seq - 1 <= covers && covers <= last_seq ->
        Some { choice; covers }
    | _ -> None
  in
  (* A tie goes to the snapshot, which restores in one increment. *)
  match (usable Chain_tail chain, usable Snapshot_tail snapshot) with
  | Some c, Some s -> Ok (if c.covers > s.covers then c else s)
  | Some d, None | None, Some d -> Ok d
  | None, None when first_seq <= 1 -> Ok { choice = Full_replay; covers = 0 }
  | None, None ->
      Error
        (Printf.sprintf
           "the WAL starts at seq %d and no checkpoint covers seq %d: \
            nothing covers the gap"
           first_seq (first_seq - 1))

let select ?chain_path ?snapshot_path ~first_seq ~last_seq () =
  choose
    ?chain:
      (Option.bind chain_path (fun p ->
           Option.map (fun (_, covers, _) -> covers) (Checkpoint.peek p)))
    ?snapshot:(Option.bind snapshot_path Snapshot.peek_deltas_applied)
    ~first_seq ~last_seq ()

let assess ?chain_path ~snapshot_path ~total_records () =
  (* A WAL from seq 1 can always be replayed in full: never an Error. *)
  Result.value
    ~default:{ choice = Full_replay; covers = 0 }
    (select ?chain_path ~snapshot_path ~first_seq:1 ~last_seq:total_records
       ())

let choice_to_string = function
  | Snapshot_tail -> "snapshot+tail"
  | Full_replay -> "full-replay"
  | Chain_tail -> "chain+tail"

let note counters = function
  | Snapshot_tail -> Counters.note_recovery_path counters `Snapshot_tail
  | Full_replay -> Counters.note_recovery_path counters `Full_replay
  | Chain_tail -> Counters.note_recovery_path counters `Chain_tail
