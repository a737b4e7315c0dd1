(** Startup recovery-path selection.

    After a crash the engine has up to three ways back: restore the
    checkpoint chain's last valid increment and replay the WAL tail past
    its coverage, restore the snapshot and replay its tail, or replay
    the whole WAL from the initial instance.

    One rule picks between them, from the files alone. An artifact
    covering [covers] records is {e usable} when
    [first_seq - 1 <= covers <= last_seq] for the WAL's records
    [first_seq..last_seq]: the tail it needs is still on disk, and it
    is not ahead of the WAL. The usable artifact with the highest
    coverage is restored; on a tie the snapshot wins (it is one
    increment). With no usable artifact the WAL is replayed in full
    when it starts at seq 1, and recovery is an [Error] when it was
    compacted (the records below [first_seq] are gone). The path taken
    is recorded via {!Counters.note_recovery_path} by the caller (see
    {!note}). *)

type choice = Snapshot_tail | Full_replay | Chain_tail

type decision = {
  choice : choice;
  covers : int;
      (** records the restored artifact covers; 0 for a full replay *)
}

val choose :
  ?chain:int ->
  ?snapshot:int ->
  first_seq:int ->
  last_seq:int ->
  unit ->
  (decision, string) result
(** The rule over the coverage of the chain's last valid increment
    and of the snapshot (either may be absent) against the WAL's
    records [first_seq..last_seq]. *)

val select :
  ?chain_path:string ->
  ?snapshot_path:string ->
  first_seq:int ->
  last_seq:int ->
  unit ->
  (decision, string) result
(** {!choose} against the files on disk: the chain's {!Checkpoint.peek}
    and the snapshot's {!Snapshot.peek_deltas_applied}. A missing or
    unreadable file is an absent artifact. *)

val assess :
  ?chain_path:string ->
  snapshot_path:string ->
  total_records:int ->
  unit ->
  decision
(** {!select} over a WAL holding records [1..total_records], where a
    full replay is always possible, so there is no error case. *)

val choice_to_string : choice -> string

val note : Counters.t -> choice -> unit
(** Record the chosen path in the counters (and the exported
    [engine_recovery_path_total] series). *)
