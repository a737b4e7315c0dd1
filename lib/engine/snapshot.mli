(** Engine state persistence, crash-safe.

    A snapshot is a self-contained text document: a checksummed
    envelope line ([mmd-engine-snapshot v3 <covers> <body-bytes>
    <crc32-hex>]), then the stream catalog (streams, budgets and costs,
    zero users) in the {!Mmd.Io} instance format, then one full
    {!Checkpoint} increment. The increment is the engine's only
    encoding of controller state: restoring rebuilds a view from the
    catalog and runs the decoder and installer of chain recovery on
    it, yielding a controller that continues exactly where the saved
    one stopped — same plan, same slot ids, same counters, same
    latency histograms.

    Durability contract: {!write_file} goes through a tmp file and an
    atomic rename and keeps the previous generation as [path.prev];
    {!read_file_result} verifies length (truncation / torn write) and
    CRC (corruption) before parsing and falls back to the previous
    generation when the current file is damaged. Documents of any
    other version are rejected with an error naming their first
    line. *)

val save : Controller.t -> string

val load_result : string -> (Controller.t, string) result
(** Verify (length, checksum) and parse. All malformed input —
    truncation, corruption, other versions, bad sections — is an
    [Error] with context, never an exception. *)

val load : string -> Controller.t
(** [load_result] for the CLI boundary. @raise Failure on malformed
    input. *)

val is_snapshot : string -> bool
(** Does the text start with the snapshot magic prefix (any version)?
    (Used by the CLI to accept either an instance file or a
    snapshot.) *)

val write_file : string -> Controller.t -> unit
(** Crash-safe write: [path.tmp] first, then the existing [path] (if
    any) is rotated to [path.prev], then the tmp file is atomically
    renamed over [path]. A crash at any point leaves a loadable
    generation on disk. *)

type generation = Current | Previous

val read_file_result : string -> (Controller.t * generation, string) result
(** Load [path], falling back to [path.prev] when the current
    generation is truncated, corrupted or unparseable. The returned
    {!generation} says which one was used. *)

val read_file : string -> Controller.t
(** @raise Failure when no generation is loadable (CLI boundary). *)

val previous_path : string -> string
(** [path.prev], the fallback generation written by {!write_file}. *)

val peek_deltas_applied : string -> int option
(** How many deltas the snapshot at [path] covers, read from its
    envelope line — no checksum verification, no body parsing. The
    cheap input {!Recovery.choose} needs; [None] when the file is
    missing or its first line is not a v3 envelope. *)
