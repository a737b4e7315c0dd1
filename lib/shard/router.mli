(** The multi-head-end router: N independent engine shards behind one
    delta stream.

    Each shard is a full existing stack — {!Engine.Controller} with
    its view, planner, {!Engine.Counters} (labeled [shard="i"] in the
    {!Obs.Metrics} registry) and optional {!Engine.Wal} — so per-shard
    crash recovery and bit-exact determinism come for free: a shard's
    WAL replays into a fresh controller exactly as the unsharded
    engine's does.

    The router owns a {e mirror} view applying every delta unsharded.
    The mirror is never planned over; it exists to (a) allocate global
    slot ids with exactly the unsharded engine's slot discipline, so
    [leave <slot>] deltas recorded against an unsharded run route
    correctly, and (b) provide the single-global-solve reference
    ({!global_scratch}) that the cross-shard utility loss is measured
    against.

    Budgets: the mirror holds the true budgets [B_i]; each shard plans
    under its split share. Per-shard sub-budgets may undercut a
    stream's cost; the shard's view then clamps that cost down, the
    same documented clamp the unsharded engine applies on a budget
    shrink. With one shard every split is the identity ([B /. 1.] and
    [B *. 1.] are exact), which is what makes [--shards 1] bit-identical
    to the unsharded engine. *)

type t

type budget_split =
  | Even  (** every shard gets [B_i / N] *)
  | Demand
      (** shard [j] gets [B_i * d_j / Σd], where [d_j] is the summed
          positive utility of the users currently on shard [j] — the
          skew-aware split; falls back to [Even] while no demand has
          been observed. *)

val create :
  ?policy:Engine.Controller.epoch_policy ->
  ?split:budget_split ->
  ?wal_dir:string ->
  ?replicas:int ->
  ?heartbeat_every:int ->
  map:Shard_map.t ->
  Mmd.Instance.t ->
  t
(** Build one controller per shard of [map] over [inst]'s catalog.
    [inst]'s users (if any) become initial active slots, dealt by
    {!Shard_map.plan} — global slot ids equal the unsharded engine's.
    [split] defaults to [Even]. [wal_dir] turns on per-shard WALs at
    [wal_dir/shard-<i>.wal], recording each shard's {e local} delta
    stream (slot ids are shard-local, so each WAL replays standalone
    into a controller built over that shard's initial sub-instance).

    [replicas > 0] puts a {!Replica.Group} behind every shard: the
    shard's controller becomes the group's primary, each applied local
    delta is WAL-shipped to that shard's followers, and a primary
    failure inside a shard heals by follower promotion without the
    router noticing. [heartbeat_every] tunes the groups' heartbeat
    cadence (ticks; the detection timeout scales to at least 3×). With
    replicas, a [wal_dir] writer becomes the group's durable log (the
    tee point), so the on-disk format is unchanged. *)

val num_shards : t -> int
val map : t -> Shard_map.t

val apply : t -> Engine.Delta.t -> Engine.View.applied
(** Route one delta: a join goes to the least-loaded shard (interleave
    tiebreak), a leave to the owning shard (slot ids are {e global} —
    the mirror's), cost changes broadcast verbatim, budget resizes
    broadcast split per {!budget_split}. The returned [applied] speaks
    global slot ids. *)

val apply_all : t -> Engine.Delta.t list -> unit

val apply_batch : t -> Engine.Delta.t list -> unit
(** {!apply} each delta in order — routing is inherently sequential —
    with the per-shard WAL OS flushes amortized to one per shard per
    batch. WAL bytes and replication frames are identical to
    one-at-a-time applies. *)

val rebalance : t -> k:int -> int
(** One epoch of {!Shard_map.rebalance}: at most [k] users move
    between shards, each as an ordinary leave/join pair through the
    shards' delta paths (WAL-recorded like any churn). Global slot ids
    and the mirror are unchanged — a move is invisible to the outside.
    Victims are deterministic: the highest global slot on the donor
    shard. Returns the number of users moved. *)

val resplit_budgets : t -> unit
(** Re-issue the current global budgets through the splitter (a
    [Budget_resize] on every shard). A no-op rebroadcast under [Even];
    under [Demand] this is the periodic skew adaptation. *)

val replan_all : t -> unit
(** Force an epoch boundary on every shard, concurrently on the
    domain pool (shards plan over disjoint sub-worlds; each plan is
    bit-identical to a sequential replan of that shard). *)

val shard_of_slot : t -> int -> int
(** Owning shard of an active global slot, [-1] otherwise. *)

val counts : t -> int array
(** Active users per shard. Fresh copy. *)

val demand : t -> float array
(** Summed positive utility of the users on each shard (the [Demand]
    split weights). Fresh copy. *)

val controller : t -> int -> Engine.Controller.t
(** Shard [i]'s controller — in replicated mode, the current primary
    of shard [i]'s replica group. *)

val mirror : t -> Engine.View.t

(** {1 Replication surface} (no-ops / empty in unreplicated mode) *)

val replicated : t -> bool

val group : t -> int -> Replica.Group.t option
(** Shard [i]'s replica group, for chaos drivers and tests. *)

val kill_primary : t -> int -> unit
(** Kill shard [i]'s primary; detection + promotion run on the group's
    subsequent ticks (or immediately via {!fail_over}). *)

val fail_over : t -> int -> bool
(** Promote on shard [i] now; false when unreplicated or no live
    follower exists. *)

val failovers : t -> int
(** Total promotions across all shards. *)

val quiesce_replicas : t -> bool
(** Drive every shard's group to convergence (all live followers fully
    caught up); true when all converged. *)

val utility : t -> float
(** Sum of the shards' plan utilities — the sharded system's achieved
    utility. *)

val report : t -> Engine.Counters.report
(** Cross-shard aggregation: integer telemetry summed, latency
    histograms merged ({!Obs.Hist.merge_into}) before summarizing.
    [certificates]/[certified_ratio] are the router's own {!certify}
    runs, not shard counters. *)

val certify :
  ?iters:int -> t -> (Engine.Certify.outcome * Cert.Certificate.t, string) result
(** Certify the whole fleet's achieved utility against one global
    upper bound: each shard emits a sparse certificate for its
    sub-world, the per-user duals compose ({!Cert.Checker.compose})
    under a count-weighted average of the shards' budget duals, and the
    composed certificate is re-verified by the independent checker
    against the {e mirror} — the unsharded problem — so the reported
    bound is the checker's recomputation over the true global budgets
    and costs, never a sum of shard claims. With [--shards 1] the
    composition is the identity and the bound is bit-identical to
    {!Engine.Certify.sparse} on the unsharded engine. On success the
    router's report/gauge ([engine_certified_opt_ratio]) are updated. *)

val global_scratch : t -> float * int
(** [(utility, evals)] of a single global solve over the mirror — the
    reference the cross-shard utility loss is measured against:
    [loss = 1 - utility t / fst (global_scratch t)]. *)

val close : t -> unit
(** Flush and close the per-shard WAL writers, if any. *)

val engine : t -> Engine.S.t
(** The router as an engine: deltas route as in {!apply}, [replan] is
    {!replan_all}, [view] is the {!mirror} (the global population),
    [certify] is the composed {!certify}. Faults are not routed to
    shards ([fire] is a no-op); chaos drivers reach a shard through
    {!group}. *)
