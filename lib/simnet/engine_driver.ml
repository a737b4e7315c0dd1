module C = Engine.Controller

type stats = {
  sim_time : float;
  utility_time : float;
  joins : int;
  leaves : int;
  peak_population : int;
  final_utility : float;
  report : Engine.Counters.report;
}

let run ~rng ?(duration = 1000.) ?(join_rate = 0.2) ?(mean_dwell = 400.)
    ?(churn = Engine.Churn.default) ?(faults = ([] : Engine.Fault.schedule))
    ?(batch = 1) (e : Engine.S.t) =
  let des = Des.create () in
  let utility_time = ref 0. in
  let last = ref 0. in
  let joins = ref 0 and leaves = ref 0 and peak = ref 0 in
  (* Departures are fire-and-forget — nothing reads their result — so
     they defer onto a buffer drained through the batched entry point
     (apply_batch). The utility-time integral samples the engine's
     utility at every event, so the buffer MUST drain before any
     observation: draining at the start of the next event, before its
     integrate_to, keeps the integral bit-identical to per-event
     applies (the deferred leave takes effect at the start of the
     interval it would have changed). The window is therefore one
     event deep whatever [batch] is — the DES is latency-bound where
     the replay CLI is throughput-bound. Fault boundaries observe the
     view per delta, so a fault schedule pins the window shut. *)
  let batch = if faults = [] then max 1 batch else 1 in
  (* Fault schedule boundaries count DES-fed deltas. *)
  let applied = ref 0 in
  let fire_faults () =
    incr applied;
    List.iter e.fire (Engine.Fault.at faults !applied)
  in
  let pending = ref [] and npending = ref 0 in
  let flush_pending () =
    if !npending > 0 then begin
      let ds = List.rev !pending in
      pending := [];
      npending := 0;
      e.apply_batch ds;
      List.iter (fun _ -> fire_faults ()) ds
    end
  in
  let integrate_to now =
    flush_pending ();
    utility_time := !utility_time +. (e.utility () *. (now -. !last));
    last := now
  in
  let depart slot des =
    integrate_to (Des.now des);
    pending := Engine.Delta.User_leave slot :: !pending;
    incr npending;
    if !npending >= batch then flush_pending ();
    incr leaves
  in
  let schedule_departure slot =
    Des.schedule des
      ~delay:(Prelude.Sampling.exponential rng ~rate:(1. /. mean_dwell))
      (depart slot)
  in
  let rec join des =
    integrate_to (Des.now des);
    let spec = Engine.Churn.random_user rng (e.view ()) churn in
    (match e.apply (Engine.Delta.User_join spec) with
    | Engine.View.Joined slot ->
        incr joins;
        peak := max !peak (Engine.View.active_count (e.view ()));
        schedule_departure slot
    | _ -> ());
    fire_faults ();
    Des.schedule des
      ~delay:(Prelude.Sampling.exponential rng ~rate:join_rate)
      join
  in
  (* The seed population churns out like everyone else. *)
  List.iter schedule_departure (Engine.View.active_slots (e.view ()));
  peak := Engine.View.active_count (e.view ());
  Des.schedule des
    ~delay:(Prelude.Sampling.exponential rng ~rate:join_rate)
    join;
  Des.run ~until:duration des;
  integrate_to duration;
  { sim_time = duration;
    utility_time = !utility_time;
    joins = !joins;
    leaves = !leaves;
    peak_population = !peak;
    final_utility = e.utility ();
    report = e.report () }

let policy ?(replan_every = 16) ?(epoch = C.Manual) inst =
  let ctrl = C.create ~policy:epoch inst in
  let usage = Baselines.Usage.create inst in
  let live = Hashtbl.create 32 in
  let offers_since = ref 0 in
  let refresh () =
    (* Sorted so the pinned order — and hence the replan's admit order
       and any printed report — is independent of hash iteration. *)
    C.set_pinned ctrl
      (List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) live []));
    C.replan ctrl;
    offers_since := 0
  in
  let offer ~now:_ ~duration:_ s =
    if Baselines.Usage.admitted usage s then []
    else begin
      incr offers_since;
      if
        (not (Engine.Planner.is_admitted (C.planner ctrl) s))
        && !offers_since >= replan_every
      then refresh ();
      if
        Engine.Planner.is_admitted (C.planner ctrl) s
        && Baselines.Usage.server_fits usage s
      then begin
        let users =
          Engine.Planner.assignment (C.planner ctrl) |> fun plan ->
          Array.to_list (Mmd.Instance.interested_users inst s)
          |> List.filter (fun u ->
                 Mmd.Assignment.assigns plan u s
                 && Baselines.Usage.user_fits usage ~user:u ~stream:s)
        in
        if users = [] then []
        else begin
          Baselines.Usage.admit usage ~stream:s ~users;
          Hashtbl.replace live s ();
          users
        end
      end
      else []
    end
  in
  let release s =
    Baselines.Usage.release usage s;
    Hashtbl.remove live s
  in
  { Policy.name = "engine"; offer; release }
