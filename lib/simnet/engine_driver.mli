(** Driving the replanning engine from the discrete-event simulator.

    Two integrations:

    - {!run} simulates {e user} churn: households join as a Poisson
      process (tastes drawn by {!Engine.Churn.random_user}, Zipf over
      catalog popularity) and dwell for an exponential time; every
      arrival and departure is fed to an engine as a delta, and plan
      utility is integrated over time ("viewer-value-time" of the
      maintained plan). The engine is any {!Engine.S.t}: a plain
      controller, a replica group or a shard router all run through
      the same loop.

    - {!policy} backs a {!Headend} admission policy with an engine:
      live sessions are pinned into the engine's view, the plan is
      refreshed every [replan_every] offers, and a stream offer is
      accepted exactly when the current plan transmits it. This is
      {!Policy.static_plan} upgraded from a frozen offline plan to a
      plan that follows the churn. *)

type stats = {
  sim_time : float;
  utility_time : float;  (** ∫ plan-utility dt over the run *)
  joins : int;
  leaves : int;
  peak_population : int;
  final_utility : float;
  report : Engine.Counters.report;
}

val run :
  rng:Prelude.Rng.t ->
  ?duration:float ->
  ?join_rate:float ->
  ?mean_dwell:float ->
  ?churn:Engine.Churn.params ->
  ?faults:Engine.Fault.schedule ->
  ?batch:int ->
  Engine.S.t ->
  stats
(** Defaults: duration 1000, join rate 0.2, mean dwell 400. The
    engine's current population is the initial one (it churns out
    too); its streams are the fixed catalog. Join specs are drawn
    against the engine's [view], so a router (whose view is its global
    mirror) sees the same workload at every shard count. The engine's
    own epoch policy decides when it replans; [run] neither forces a
    final replan nor closes the engine, so mode-specific figures
    (failovers, shard counts, cross-shard loss) are read from the
    engine the caller passed in.

    [batch] (default 1) routes departures through [apply_batch] on a
    deferred buffer of at most [batch] deltas. The buffer drains before
    every utility observation, so stats are bit-identical at every
    [batch] — the utility-time integral samples at each event, which
    closes the coalescing window at the next event boundary; the real
    batch throughput win belongs to the replay paths (CLI [--batch]),
    not the event-driven simulation. Joins always apply synchronously
    (their slot id schedules the departure), and a non-empty [faults]
    forces [batch = 1] (fault boundaries observe per-delta state).

    [faults] (default none) pins {!Engine.Fault} events to the run's
    delta boundaries and hands each to the engine's [fire] hook: a
    controller absorbs shocks and survives [Task_exn] under the
    supervisor, a replica group also takes the replication kinds — a
    [Primary_crash] is how a simulation kills the primary mid-run. All
    effects land in the run's {!Engine.Counters.report}. *)

val policy :
  ?replan_every:int -> ?epoch:Engine.Controller.epoch_policy ->
  Mmd.Instance.t -> Policy.t
(** Engine-backed admission for {!Headend.run}. [replan_every]
    (default 16) bounds how many offers may arrive between plan
    refreshes; [epoch] is the engine's own delta policy (default
    [Manual] — the policy triggers replans itself). Resource
    accounting goes through {!Baselines.Usage}, so the policy never
    violates a budget or capacity even mid-epoch. *)
