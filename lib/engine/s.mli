(** One engine signature.

    Whatever serves the plan — one {!Controller}, a replica group or a
    shard router — the replay CLI and the simulation driver drive it
    through this record. Each engine builds it in one place:
    {!of_controller}, [Replica.Chaos.engine] and [Shard.Router.engine].
    A record of closures rather than a module type, so a consumer
    composes by wrapping a field (a write-ahead log around
    [apply_batch], another emitter behind [certify]). *)

type t = {
  apply : Delta.t -> View.applied;
  apply_batch : Delta.t list -> unit;
      (** bit-identical to applying each delta in turn *)
  replan : unit -> unit;  (** force an epoch boundary everywhere *)
  view : unit -> View.t;
      (** the whole population, for churn draws and active counts *)
  utility : unit -> float;
  report : unit -> Counters.report;
  certify : unit -> (Certify.outcome * string, string) result;
      (** a checker-verified bound with how it was obtained, or the
          verdict to report instead *)
  fire : Fault.event -> unit;
      (** fault injection; kinds aimed at another layer are no-ops *)
  close : unit -> unit;
}

val of_controller : Controller.t -> t
(** [certify] is {!Certify.sparse}, noted in the controller's
    counters; [fire] absorbs budget shocks and stream outages and makes
    [Task_exn] kill the first attempt of a
    {!Supervisor.supervised_replan}. *)
