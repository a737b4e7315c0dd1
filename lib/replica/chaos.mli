(** Seeded replication chaos: drive an {!Engine.Fault.schedule}
    through a replica group.

    {!run} replays a churn log on the group, firing the scheduled
    faults at their delta boundaries exactly like the simulation
    driver does for single-controller faults: frame faults arm the
    target follower's transport, crashes kill replicas, a primary
    crash runs detection-then-promotion to completion (idle ticks
    until the failure detector fires), a heartbeat partition is
    ridden out for its duration, and budget/outage shocks are
    materialized against the primary's view and absorbed — which
    ships them to followers as shock frames. The run ends with a
    {!Group.quiesce}, so every live follower is fully caught up.

    The invariant all of this is tested against: whatever the
    schedule did, the surviving primary's state is bit-identical to
    {!reference} — a plain unreplicated controller fed the same log
    and the same shocks. Replication faults must be {e invisible} in
    the final state; only the fault counters may show they happened. *)

val run :
  Group.t -> log:Engine.Delta.t list -> schedule:Engine.Fault.schedule -> unit

val reference :
  ?policy:Engine.Controller.epoch_policy ->
  Mmd.Instance.t ->
  log:Engine.Delta.t list ->
  schedule:Engine.Fault.schedule ->
  Engine.Controller.t
(** The unreplicated, unkilled run every chaos outcome must match:
    same instance, same log, same shock deltas through
    [absorb_shock]; replication-layer faults ignored. *)

val fire : Group.t -> Engine.Fault.event -> unit
(** Fire one fault now (exposed for drivers that interleave their own
    delta source with faults). *)

val ensure_promoted : Group.t -> unit
(** If the primary is down, run idle ticks until the failure detector
    promotes a follower (restarting crashed followers first when none
    is live). A no-op on a healthy group. Drivers call this before
    applying a delta that may follow a primary kill. *)

val engine : Group.t -> Engine.S.t
(** The group as an engine. Every apply and the final replan first
    {!ensure_promoted}, so a kill between deltas heals before the next
    one lands; the rest reads the current primary (its view, utility,
    counters and sparse certificate). [fire] is {!fire}; [close] is
    {!Group.close}. *)
