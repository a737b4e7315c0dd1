(** Incremental snapshots: an append-only chain of delta-encoded
    checkpoint increments — and the engine's one encoding of controller
    state ({!Snapshot} wraps a single full increment).

    A dense materialized instance (num_slots × num_streams matrices)
    costs more to parse than replaying the log it summarizes. An
    increment never writes the dense view: it records the view
    {e diff} since its parent (churned slot specs, freed slots, changed
    cost rows, the budget when dirty, the free order) plus the
    {e full} — but small — controller/planner state: plan, admitted
    set, hex float accumulators, counters, histograms, epoch phase.

    Recovery rebuilds the view from the initial instance plus the
    diffs, installs the last increment's controller state, and replays
    only the WAL tail beyond [covered] — bit-identical to full replay,
    with no dense parse, no per-record planner bookkeeping and no
    replans for the covered prefix. Segments the chain covers are then
    safe to delete with {!Wal_store.compact}.

    Torn or corrupt increments invalidate themselves and everything
    after them (later diffs build on them); recovery falls back to the
    longest valid prefix. A chain with zero valid increments is an
    [Error] — callers fall back to full replay.

    Format (version-gated by the magic line, all floats lossless [%h]):

    {v
    mmd-engine-checkpoint v1
    I <covers> <body-bytes> <crc32-hex>
    <body>
    ...
    v} *)

val magic : string

(** {1 Writing} *)

type writer

val create_writer : path:string -> Controller.t -> writer
(** Open (creating if needed) a chain at [path] for appending. A fresh
    chain whose controller has already applied deltas marks everything
    dirty, so the first increment carries the whole distance from the
    initial instance. *)

val note : writer -> View.applied -> unit
(** Record what a delta touched, so the next increment's view diff
    covers it. Call with every {!View.apply} result between
    checkpoints ({!Controller.apply_batch} callers can tee this from
    the WAL append site). *)

val checkpoint : writer -> Controller.t -> unit
(** Append one increment covering the controller's current
    [deltas_applied], then reset the dirty set. *)

val covered : writer -> int
(** [deltas_applied] at the last appended (or resumed-from) increment. *)

val increments : writer -> int
(** Increments appended by this writer. *)

val close_writer : writer -> unit
val writer_path : writer -> string

(** {1 Recovery} *)

type recovered = {
  ctrl : Controller.t;
  covered : int;  (** deltas applied at the restored increment *)
  increments : int;  (** increments applied *)
  torn : bool;  (** a torn/corrupt suffix was discarded *)
}

val recover :
  instance:Mmd.Instance.t -> path:string -> (recovered, string) result
(** Rebuild the controller at the last valid increment. The caller
    replays WAL records with sequence [> covered] through the ordinary
    {!Controller.apply} path to reach the crash point. *)

val peek : string -> (int * int * int) option
(** [(chain_bytes, covered, increments)] of the last valid increment,
    without building a view — the recovery cost model's input. [None]
    when the file is missing, not a chain, or has no valid increment. *)

(** {1 Frames and single increments}

    The pieces {!Snapshot} is built from. A frame is a header line
    [<tag> <covers> <body-bytes> <crc32-hex>] followed by the body;
    chain increments use the tag [I]. *)

type frame = { covers : int; body : string }

type frame_error =
  | Bad_header of string  (** the header line, when it is not a [tag] frame *)
  | Truncated of { have : int; want : int }  (** body bytes present / promised *)
  | Corrupt of { stored : string; actual : string }  (** CRC-32 hex *)

val frame_header : tag:string -> covers:int -> string -> string
(** The header line (newline included) that frames the given body. *)

val read_frame : tag:string -> string -> int -> (frame * int, frame_error) result
(** Verify and cut out the frame whose header starts at the offset;
    returns it with the offset just past its body. *)

val full_increment : Controller.t -> string
(** The body of a dirty-everything increment: it restores the
    controller exactly on top of a view over the same stream catalog,
    whatever that view's slots hold. *)

val restore_increment :
  View.t -> covers:int -> string -> (Controller.t, string) result
(** Decode one increment body, apply its view diff to the view (which
    is mutated) and build the controller from its state — the step
    {!recover} runs for the last frame of a chain. Malformed bodies,
    including a missing or duplicate [pslot] line, are an [Error] with
    context. *)
