module C = Controller

type supervisor_config = {
  replan_time_budget : float;
  max_retries : int;
  backoff : float;
}

let default_supervisor =
  { replan_time_budget = 5.; max_retries = 3; backoff = 0.05 }

type replan_outcome = {
  retries : int;
  fell_back : bool;
  overran : bool;
  seconds : float;
  backoff_waited : float;
}

let note_fallback_counters ctrl t0 =
  Counters.note_fallback (C.counters ctrl);
  Counters.note_recovery (C.counters ctrl)
    ~seconds:(Obs.Clock.elapsed_since t0)

let supervised_replan ?(config = default_supervisor)
    ?(inject = fun ~attempt:_ -> ()) ctrl =
  Obs.Span.with_ ~name:"driver.supervised_replan" (fun () ->
      (* The controller's plan is feasible by invariant at every delta
         boundary; capture it so a failed replan has something to fall
         back to. *)
      let last_feasible = C.plan ctrl in
      let t0 = Obs.Clock.now () in
      let waited = ref 0. in
      let rec attempt k =
        match
          inject ~attempt:k;
          C.replan ctrl
        with
        | () ->
            let seconds = Obs.Clock.elapsed_since t0 in
            { retries = k;
              fell_back = false;
              overran = seconds -. !waited > config.replan_time_budget;
              seconds;
              backoff_waited = !waited }
        | exception _ when k < config.max_retries ->
            (* Bounded exponential backoff. The wait is simulated
               (summed, not slept) so chaos tests stay fast and
               deterministic. *)
            waited := !waited +. (config.backoff *. float (1 lsl k));
            attempt (k + 1)
        | exception _ ->
            (* Out of retries: restore the last feasible plan and serve
               it. [Planner.force] resets the planner first, so a
               replan that died mid-solve leaves no partial state
               behind. *)
            Planner.force (C.planner ctrl) last_feasible;
            note_fallback_counters ctrl t0;
            { retries = k;
              fell_back = true;
              overran = false;
              seconds = Obs.Clock.elapsed_since t0;
              backoff_waited = !waited }
      in
      attempt 0)
