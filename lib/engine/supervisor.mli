(** The replan supervisor.

    A replan that dies (an exception from a pool task, an injected
    fault) must never take the serving plan down with it. The
    supervisor wraps {!Controller.replan} with bounded
    retry-with-exponential-backoff and, when every retry fails,
    restores the last feasible plan — the engine keeps serving, merely
    without the utility the replan would have recovered. *)

type supervisor_config = {
  replan_time_budget : float;
      (** seconds a replan may take before it is flagged as an
          overrun *)
  max_retries : int;  (** replan attempts after the first failure *)
  backoff : float;  (** base backoff; attempt [k] waits [backoff·2^k] *)
}

val default_supervisor : supervisor_config
(** 5 s budget, 3 retries, 50 ms base backoff. *)

type replan_outcome = {
  retries : int;  (** retry attempts actually used *)
  fell_back : bool;  (** true when the last feasible plan was restored *)
  overran : bool;  (** replan finished but blew the time budget *)
  seconds : float;
      (** wall-clock seconds for the whole supervised operation,
          measured with {!Obs.Clock} *)
  backoff_waited : float;  (** total simulated backoff wait *)
}

val supervised_replan :
  ?config:supervisor_config ->
  ?inject:(attempt:int -> unit) ->
  Controller.t ->
  replan_outcome
(** Replan under supervision. [inject] runs at the start of each
    attempt (attempt 0 is the initial try) — the fault-injection hook;
    an exception it raises counts as that attempt failing. Fallbacks
    are surfaced through {!Counters} as a fallback plus a
    recovery. *)
