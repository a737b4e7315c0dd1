(* Seeded benchmark inputs.

   A workload's inputs are a pure function of its spec, the seed and
   the run length: the world the engine starts from, the warm-up joins
   applied during set-up, and the timed delta log. Both logs are held
   as the text lines the engine decodes, so the engine never sees the
   seed or the generator's state. *)

module D = Engine.Delta
module V = Engine.View
module Rng = Prelude.Rng

type kind = Small | Large | Sharded

type spec = {
  name : string;
  kind : kind;
  streams : int;
  users : int;
      (** initial users of the instance ([Small]) or warm-up joins
          applied during set-up ([Large], [Sharded]) *)
  every : int;  (** epoch policy [Every every], per shard when sharded *)
  batch : int;  (** closed-loop batch size *)
  checkpoint_every : int;
      (** checkpoint + compaction interval in applied deltas; [0] means
          no segment store and no checkpoint chain ([Sharded]) *)
  chunk : int;
      (** deltas per measured chunk: the checkpoint interval, or about
          four shard epochs for the router *)
  probe_every : int;  (** deltas between host-speed probes inside a chunk *)
  rate : float;  (** open-loop arrival rate, deltas per second *)
  domains : int;
  shards : int;  (** [0] for the single engine *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  recoveries : int;
      (** crash samples spread over a run (the router adds the two pass
          routers crashed at the end) *)
}

let churn_small =
  { name = "churn-small";
    kind = Small;
    streams = 150;
    users = 300;
    every = 100;
    batch = 64;
    checkpoint_every = 2000;
    chunk = 2000;
    probe_every = 2000;
    rate = 30_000.;
    domains = 1;
    shards = 0;
    setups = 9;
    recoveries = 8 }

let churn_large =
  { name = "churn-large";
    kind = Large;
    streams = 1000;
    users = 20_000;
    every = 10_000;
    batch = 64;
    checkpoint_every = 5_000;
    chunk = 5_000;
    probe_every = 1000;
    rate = 4_000.;
    domains = 1;
    shards = 0;
    setups = 3;
    recoveries = 3 }

(* Each shard sees about a quarter of the joins and leaves plus every
   cost change, so [Every 625] per shard replans some shard about every
   600 deltas, and a chunk of 2500 deltas holds about four replans:
   chunks then do nearly equal work, which a rarer epoch would not
   give. *)
let sharded_replicated =
  { churn_large with
    name = "sharded-replicated";
    kind = Sharded;
    every = 625;
    checkpoint_every = 0;
    chunk = 2_500;
    probe_every = 500;
    rate = 3_000.;
    domains = 2;
    shards = 4;
    setups = 4;
    recoveries = 2 }

let all = [ churn_small; churn_large; sharded_replicated ]
let find name = List.find_opt (fun s -> s.name = name) all

(* The same workload at a size a unit test can afford: same world
   shape, same code paths, a few thousand deltas. *)
let smoke spec =
  match spec.kind with
  | Small -> { spec with setups = 4; recoveries = 2 }
  | Large | Sharded ->
      { spec with
        streams = 200;
        users = 1500;
        every = spec.every / 10;
        checkpoint_every = (if spec.checkpoint_every > 0 then 1000 else 0);
        chunk = 1000;
        probe_every = 500;
        setups = 3;
        recoveries = 1 }

(* Share of the run the open-loop pass takes at the workload's rate;
   the closed-loop pass over the same log takes about half as long,
   set-up, recovery and certification the rest. *)
let open_share = 0.4

(* Full chunks in a run of [seconds]; at least three, so a median
   means something. *)
let chunks spec ~seconds =
  max 3
    (Float.to_int
       (Float.round (open_share *. seconds *. spec.rate /. float spec.chunk)))

(* Lines before the first full chunk: with a checkpoint chain, enough
   to put every checkpoint (and every [Every] replan, which shares its
   phase) in the middle of a chunk, so the deltas queued behind it are
   measured; the log then ends half-way between two checkpoints, and the
   crash at the end leaves a real WAL tail for recovery to replay. The
   warm-up joins are logged too and count toward the phase. *)
let lead spec =
  match spec.checkpoint_every with
  | 0 -> 0
  | c ->
      let warm = match spec.kind with Small -> 0 | Large | Sharded -> spec.users in
      ((((c / 2) - (warm mod c)) mod c) + c) mod c

let log_length spec ~seconds = lead spec + (chunks spec ~seconds * spec.chunk)

type t = {
  spec : spec;
  seed : int;
  world : Mmd.Instance.t;
  warmup : string array;
  log : string array;
  crash_tail : string array;
      (** sharded only: cost re-announcements that every shard receives
          just before its primary is killed, so each follower replays the
          same tail on promotion *)
  crash_fill : string array;
      (** sharded only: one epoch of further re-announcements, of which a
          crash sample first sends as many as it takes to keep every
          shard's next replan out of the tail *)
}

(* Ticks between heartbeats of the router's replica groups; the crash
   tail is shorter, so none of it is shipped before the crash. *)
let heartbeat_every = 128

let crash_tail_records spec = min 96 (spec.every / 2)

(* ----- delta generation ----- *)

(* Cubing a uniform draw concentrates interest on low stream ids, the
   catalog popularity skew E18 uses. *)
let pick_stream rng ~streams =
  let r = Rng.float rng 1. in
  min (streams - 1) (Float.to_int (float streams *. (r *. r *. r)))

(* churn-large's households: 4..27 interests drawn E18-style, unit
   capacity measure, no utility cap. *)
let large_user rng ~streams =
  let want = 4 + Rng.int rng 24 in
  let chosen = Hashtbl.create want in
  for _ = 1 to want do
    Hashtbl.replace chosen (pick_stream rng ~streams) ()
  done;
  let ids = List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) chosen []) in
  { D.utility_cap = infinity;
    capacity = [| 60. |];
    interests =
      List.map
        (fun s -> (s, 1. +. Rng.float rng 2., [| 1. +. Rng.float rng 3. |]))
        ids }

(* churn-small's households, drawn like [Engine.Churn.random_user]
   (Poisson interest count, Zipf over the popularity ranking, log-uniform
   utilities on the catalog's scale, unit-skew loads, capacity for about
   half the interest) except that the ranking and the utility scale are
   those of the starting world. Churn recomputes both over the whole
   population at every join, which costs more than the engine spends on
   the delta and makes long logs drift. *)
let small_user rng ~ranked ~zipf ~wlo ~whi ~mc =
  let params = Engine.Churn.default in
  let ns = Array.length ranked in
  let want =
    min ns
      (1 + Prelude.Sampling.poisson rng ~mean:(float (max 0 (params.mean_interests - 1))))
  in
  let chosen = Hashtbl.create want in
  let tries = ref 0 in
  while Hashtbl.length chosen < want && !tries < 50 * want do
    incr tries;
    Hashtbl.replace chosen ranked.(Prelude.Sampling.zipf_draw rng zipf) ()
  done;
  let ids = List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) chosen []) in
  let interests =
    List.map
      (fun s ->
        let w = Prelude.Sampling.uniform_log rng ~lo:wlo ~hi:whi in
        (s, w, Array.make mc w))
      ids
  in
  let total = List.fold_left (fun acc (_, w, _) -> acc +. w) 0. interests in
  let peak = List.fold_left (fun acc (_, w, _) -> Float.max acc w) 0. interests in
  { D.utility_cap = infinity;
    capacity = Array.make mc (Float.max peak (0.5 *. total));
    interests }

(* Popularity ranking (total utility, most popular first) and utility
   range of a view's population. *)
let popularity view =
  let ns = V.num_streams view in
  let totals = Array.make ns 0. in
  let lo = ref infinity and hi = ref 0. in
  List.iter
    (fun u ->
      List.iter
        (fun s ->
          let w = V.utility view u s in
          totals.(s) <- totals.(s) +. w;
          lo := Float.min !lo w;
          hi := Float.max !hi w)
        (V.interests view u))
    (V.active_slots view);
  let ranked = Array.init ns Fun.id in
  Array.stable_sort (fun a b -> compare totals.(b) totals.(a)) ranked;
  let lo, hi = if !hi <= 0. || !lo >= !hi then (1., 10.) else (!lo, !hi) in
  (ranked, lo, hi)

(* A stationary churn log over [world]: every draw is relative to the
   starting world, so a long log does not wander off to a different
   population size, price level or budget the way a random walk would,
   and two seeds measure the same regime. Departures alternate with
   arrivals, holding the population at its size after the warm-up
   joins; [cost_share] of the deltas re-price a stream to its base cost
   times a lognormal factor (sigma 0.3), and [budget_share] resize the
   budgets to their base times a lognormal factor (sigma 0.1), never
   below the dearest stream. *)
let churn ~rng ~world ~user ~warmup ~length ~cost_share ~budget_share =
  let scratch = V.of_instance world in
  let m = V.m scratch and ns = V.num_streams scratch in
  let base_cost = Array.init ns (fun s -> Array.init m (V.server_cost scratch s)) in
  let base_budget = Array.init m (V.budget scratch) in
  let active = Array.make (V.active_count scratch + warmup + 1) 0 in
  let count = ref 0 in
  List.iter
    (fun u ->
      active.(!count) <- u;
      incr count)
    (V.active_slots scratch);
  (* Each delta is replayed on the scratch view, so leave deltas name
     exactly the slots the engine will have allocated. *)
  let emit d =
    (match V.apply scratch d with
    | V.Joined slot ->
        active.(!count) <- slot;
        incr count
    | _ -> ());
    D.to_string d
  in
  let join () = emit (D.User_join (user ())) in
  let leave () =
    let i = Rng.int rng !count in
    let slot = active.(i) in
    decr count;
    active.(i) <- active.(!count);
    emit (D.User_leave slot)
  in
  let jitter sigma = Prelude.Sampling.log_normal rng ~mu:0. ~sigma in
  let reprice () =
    let s = Rng.int rng ns in
    emit
      (D.Stream_cost_change
         { stream = s; costs = Array.map (fun c -> c *. jitter 0.3) base_cost.(s) })
  in
  let resize () =
    let budgets =
      Array.init m (fun i ->
          let dearest = ref 0. in
          for s = 0 to ns - 1 do
            dearest := Float.max !dearest (V.server_cost scratch s i)
          done;
          Float.max !dearest (base_budget.(i) *. jitter 0.1))
    in
    emit (D.Budget_resize budgets)
  in
  let refresh () =
    let s = Rng.int rng ns in
    emit
      (D.Stream_cost_change
         { stream = s; costs = Array.init m (V.server_cost scratch s) })
  in
  let warm = Array.init warmup (fun _ -> join ()) in
  let owe_join = ref false in
  let log =
    Array.init length (fun _ ->
        let r = Rng.float rng 1. in
        if r < cost_share then reprice ()
        else if r < cost_share +. budget_share then resize ()
        else if !owe_join then begin
          owe_join := false;
          join ()
        end
        else begin
          owe_join := true;
          leave ()
        end)
  in
  (warm, log, refresh)

(* ----- worlds ----- *)

(* churn-small: the E20 world, drawn from E20's own seed, so the seed
   varies the churn and not the catalog. *)
let small_world spec =
  Workloads.Generator.instance (Rng.create 14_001)
    { Workloads.Generator.default with
      num_streams = spec.streams;
      num_users = spec.users;
      m = 2;
      mc = 1;
      density = 0.08;
      budget_fraction = 0.25 }

(* churn-large, sharded: streams and budgets only, E18-style; the whole
   population arrives as churn. *)
let catalog rng ~streams =
  let cost =
    Array.init streams (fun _ ->
        [| 0.5 +. Rng.float rng 1.; 0.2 +. Rng.float rng 2. |])
  in
  let budget =
    Array.init 2 (fun i -> 0.2 *. Array.fold_left (fun acc c -> acc +. c.(i)) 0. cost)
  in
  Mmd.Instance.create ~name:"perfbench-catalog" ~mc:1 ~server_cost:cost ~budget
    ~load:[||] ~capacity:[||] ~utility:[||] ~utility_cap:[||] ()

let make spec ~seed ~seconds =
  let length = log_length spec ~seconds in
  let rng = Rng.create seed in
  match spec.kind with
  | Small ->
      let world = small_world spec in
      let ranked, wlo, whi = popularity (V.of_instance world) in
      let zipf = Prelude.Sampling.zipf ~n:spec.streams ~s:Engine.Churn.default.zipf_skew in
      let user () = small_user rng ~ranked ~zipf ~wlo ~whi ~mc:1 in
      (* Engine.Churn's default mix: joins:leaves:costs:budgets =
         10:10:1:0.2. *)
      let _, log, _ =
        churn ~rng ~world ~user ~warmup:0 ~length ~cost_share:(1. /. 21.2)
          ~budget_share:(0.2 /. 21.2)
      in
      { spec; seed; world; warmup = [||]; log; crash_tail = [||]; crash_fill = [||] }
  | Large | Sharded ->
      let world = catalog rng ~streams:spec.streams in
      let user () = large_user rng ~streams:spec.streams in
      let warmup, log, refresh =
        churn ~rng ~world ~user ~warmup:spec.users ~length ~cost_share:0.02
          ~budget_share:0.
      in
      (* The crash tail re-announces streams' current prices: every record
         takes the full cost-change path on replay, but none reshapes
         the plan, so each promotion replays the same amount of work. *)
      let refreshes k = if spec.kind = Sharded then Array.init k (fun _ -> refresh ()) else [||] in
      let crash_tail = refreshes (crash_tail_records spec) in
      let crash_fill = refreshes spec.every in
      { spec; seed; world; warmup; log; crash_tail; crash_fill }

let log_text t = String.concat "\n" (Array.to_list t.log)
