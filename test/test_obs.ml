(* The observability layer: monotonic wall clock (the Sys.time bug
   class), histogram codec/merge/quantiles, span JSONL output and
   nesting across pool tasks, metric aggregation, and histogram
   persistence through Snapshot v2. *)

open Helpers
module H = Obs.Hist
module C = Engine.Controller

(* ---------- Clock: wall time, not CPU time ---------- *)

let test_clock_monotone () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now () in
    check_bool "non-decreasing" true (t >= !prev);
    prev := t
  done

let test_clock_wall_not_cpu () =
  let t0 = Obs.Clock.now () in
  let c0 = Sys.time () in
  Unix.sleepf 0.05;
  let wall = Obs.Clock.elapsed_since t0 in
  let cpu = Sys.time () -. c0 in
  check_bool "wall clock sees the sleep" true (wall >= 0.04);
  check_bool "CPU clock does not" true (cpu < 0.04)

(* The bug class this PR fixes: Sys.time is process CPU time, which
   ignores time blocked in I/O (and sums across pool domains). A
   latency measured through Obs.Clock around pool tasks that sleep
   must report the wall time; the CPU clock reports ~nothing. *)
let test_wall_clock_under_pool () =
  Prelude.Pool.with_num_domains 4 (fun () ->
      let t0 = Obs.Clock.now () in
      let c0 = Sys.time () in
      ignore
        (Prelude.Pool.parallel_map
           (fun _ -> Unix.sleepf 0.03)
           [| 0; 1; 2; 3 |]);
      let wall = Obs.Clock.elapsed_since t0 in
      let cpu = Sys.time () -. c0 in
      check_bool "wall time covers the sleeping tasks" true (wall >= 0.025);
      check_bool "CPU time does not" true (cpu < 0.025))

(* Regression: supervised_replan used to time with Sys.time, so a
   replan stalled in I/O reported ~0 seconds. *)
let test_supervised_replan_wall_time () =
  let inst = random_mmd ~seed:5 ~num_streams:20 ~num_users:12 ~m:1 ~mc:1 ~skew:2. in
  let ctrl = C.create ~policy:C.Manual inst in
  let outcome =
    Engine.Supervisor.supervised_replan
      ~inject:(fun ~attempt:_ -> Unix.sleepf 0.05)
      ctrl
  in
  check_bool "reported latency is wall time" true (outcome.seconds >= 0.04)

(* ---------- Histograms ---------- *)

let hist_of xs =
  let h = H.create () in
  List.iter (H.observe h) xs;
  h

let pos_floats =
  QCheck2.Gen.(list_size (int_range 0 60) (float_range 1e-9 100.))

let qcheck_hist_roundtrip =
  qtest ~count:200 "hist encode/decode round-trips" pos_floats (fun xs ->
      let h = hist_of xs in
      match H.decode (H.encode h) with
      | Error msg -> QCheck2.Test.fail_report msg
      | Ok h' ->
          H.count h' = H.count h
          && H.bucket_counts h' = H.bucket_counts h
          && Int64.bits_of_float (H.sum h') = Int64.bits_of_float (H.sum h)
          && (H.count h = 0
             || Int64.bits_of_float (H.min_value h')
                = Int64.bits_of_float (H.min_value h)
                && Int64.bits_of_float (H.max_value h')
                   = Int64.bits_of_float (H.max_value h)))

let qcheck_hist_merge =
  qtest ~count:200 "hist merge = hist of concatenation"
    QCheck2.Gen.(pair pos_floats pos_floats)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      H.merge_into ~into:a b;
      let whole = hist_of (xs @ ys) in
      H.count a = H.count whole
      && H.bucket_counts a = H.bucket_counts whole
      && Float.abs (H.sum a -. H.sum whole)
         <= 1e-9 *. (1. +. Float.abs (H.sum whole))
      && (H.count whole = 0
         || H.min_value a = H.min_value whole
            && H.max_value a = H.max_value whole))

let test_hist_single_sample_quantiles () =
  let h = hist_of [ 0.005 ] in
  (* One sample: every quantile clamps to the exact observed value. *)
  check_float "p50" 0.005 (H.quantile h 0.5);
  check_float "p99" 0.005 (H.quantile h 0.99);
  let s = H.to_summary h in
  check_int "count" 1 s.Prelude.Stats.count;
  check_float "mean" 0.005 s.Prelude.Stats.mean;
  check_float "max" 0.005 s.Prelude.Stats.max

let test_hist_quantile_accuracy () =
  (* 1..1000 ms uniformly: log-bucket estimates are within one bucket
     (factor 2^(1/4) ≈ 1.19) of the true quantile. *)
  let xs = List.init 1000 (fun i -> float (i + 1) /. 1000.) in
  let h = hist_of xs in
  List.iter
    (fun q ->
      let est = H.quantile h q and true_ = q in
      let ratio = est /. true_ in
      check_bool
        (Printf.sprintf "q%.2f within a bucket (got ratio %.3f)" q ratio)
        true
        (ratio > 0.8 && ratio < 1.25))
    [ 0.5; 0.9; 0.99 ]

let test_hist_summary_moments () =
  let h = hist_of [ 1.; 2.; 3.; 4. ] in
  let s = H.to_summary h in
  check_float "mean" 2.5 s.Prelude.Stats.mean;
  check_float_loose "stddev" 1.2909944487358056 s.Prelude.Stats.stddev;
  check_float "min" 1. s.Prelude.Stats.min;
  check_float "max" 4. s.Prelude.Stats.max

let test_hist_empty_summary () =
  let s = H.to_summary (H.create ()) in
  check_int "count" 0 s.Prelude.Stats.count;
  check_bool "mean is nan" true (Float.is_nan s.Prelude.Stats.mean);
  check_bool "quantile is nan" true (Float.is_nan (H.quantile (H.create ()) 0.5))

let test_hist_decode_rejects_garbage () =
  check_bool "bad magic" true (Result.is_error (H.decode "nope 1 2"));
  check_bool "bad bucket" true
    (Result.is_error (H.decode "h1 1 0x1p0 0x1p0 0x1p0 0x1p0 9999:1"));
  check_bool "bad scalar" true (Result.is_error (H.decode "h1 x y z w v"))

(* ---------- Spans and the JSONL trace ---------- *)

(* Minimal field extraction for the trace format this library writes
   (flat JSON object, one per line). *)
let json_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length pat > String.length line then None
    else if String.sub line i (String.length pat) = pat then
      Some (i + String.length pat)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      let depth = ref 0 in
      let in_str = ref false in
      (try
         for i = start to String.length line - 1 do
           let c = line.[i] in
           if !in_str then begin
             if c = '\\' then ()
             else if c = '"' then in_str := false
           end
           else
             match c with
             | '"' -> in_str := true
             | '{' | '[' -> incr depth
             | '}' | ']' when !depth > 0 -> decr depth
             | ',' | '}' ->
                 stop := i;
                 raise Exit
             | _ -> ()
         done;
         stop := String.length line
       with Exit -> ());
      Some (String.trim (String.sub line start (!stop - start)))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let with_trace_file f =
  let path = Filename.temp_file "vdmc_obs" ".jsonl" in
  Obs.Trace.set_output path;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.close ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      f ();
      Obs.Trace.close ();
      read_lines path)

let span_named lines name =
  List.filter
    (fun l -> json_field l "name" = Some (Printf.sprintf "%S" name))
    lines

let test_span_jsonl_wellformed () =
  let lines =
    with_trace_file (fun () ->
        Obs.Span.with_ ~name:"outer" ~attrs:[ ("k", "v\"quoted\"") ] (fun () ->
            Obs.Span.with_ ~name:"inner" (fun () -> ())))
  in
  check_bool "got spans" true (List.length lines >= 2);
  List.iter
    (fun l ->
      check_bool "object braces" true
        (String.length l >= 2
        && l.[0] = '{'
        && l.[String.length l - 1] = '}');
      check_bool "has name" true (json_field l "name" <> None);
      check_bool "has id" true (json_field l "id" <> None);
      check_bool "has parent" true (json_field l "parent" <> None);
      check_bool "has duration" true (json_field l "dur_s" <> None))
    lines

let test_span_nesting () =
  let lines =
    with_trace_file (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner" (fun () -> ())))
  in
  (* Spans close inside-out: inner is emitted first. *)
  let outer = List.nth (span_named lines "outer") 0 in
  let inner = List.nth (span_named lines "inner") 0 in
  check_bool "outer is a root" true (json_field outer "parent" = Some "null");
  Alcotest.(check (option string))
    "inner parents to outer"
    (json_field outer "id")
    (json_field inner "parent")

let test_span_nesting_across_pool () =
  let lines =
    with_trace_file (fun () ->
        Prelude.Pool.with_num_domains 4 (fun () ->
            Obs.Span.with_ ~name:"submit" (fun () ->
                ignore
                  (Prelude.Pool.parallel_map
                     (fun i ->
                       Obs.Span.with_ ~name:"task" (fun () -> i * i))
                     [| 0; 1; 2; 3 |]))))
  in
  let submit = List.nth (span_named lines "submit") 0 in
  let tasks = span_named lines "task" in
  check_int "one span per pool task" 4 (List.length tasks);
  List.iter
    (fun task ->
      Alcotest.(check (option string))
        "task span parents to the submitting span"
        (json_field submit "id")
        (json_field task "parent"))
    tasks

let test_span_exception_safe () =
  check_bool "no open span" true (Obs.Span.current () = None);
  (try
     Obs.Span.with_ ~name:"boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  check_bool "context restored after raise" true (Obs.Span.current () = None)

(* ---------- Metrics registry and exporters ---------- *)

let test_quarantine_aggregates_in_metrics () =
  let c = Obs.Metrics.counter "engine_quarantined_total" in
  let before = Obs.Metrics.value c in
  let counters = Engine.Counters.create () in
  Engine.Counters.note_quarantined ~n:3 counters;
  Engine.Counters.note_quarantined counters;
  check_int "per-controller count" 4 (Engine.Counters.quarantined counters);
  check_int "exported aggregate" (before + 4) (Obs.Metrics.value c);
  check_bool "prometheus dump carries it" true
    (contains (Obs.Export.prometheus ()) "engine_quarantined_total")

let test_registry_idempotent_and_typed () =
  let a = Obs.Metrics.counter ~labels:[ ("x", "1") ] "obs_test_counter" in
  let b = Obs.Metrics.counter ~labels:[ ("x", "1") ] "obs_test_counter" in
  Obs.Metrics.inc a;
  Obs.Metrics.inc ~n:2 b;
  check_int "same instrument" 3 (Obs.Metrics.value a);
  check_bool "kind mismatch rejected" true
    (match Obs.Metrics.gauge ~labels:[ ("x", "1") ] "obs_test_counter" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_prometheus_export_format () =
  let g = Obs.Metrics.gauge "obs_test_gauge" in
  Obs.Metrics.set g 2.5;
  let h = Obs.Metrics.histogram "obs_test_seconds" in
  Obs.Hist.observe h 0.01;
  Obs.Hist.observe h 0.04;
  let text = Obs.Export.prometheus () in
  check_bool "gauge TYPE line" true (contains text "# TYPE obs_test_gauge gauge");
  check_bool "gauge sample" true (contains text "obs_test_gauge 2.5");
  check_bool "histogram TYPE line" true
    (contains text "# TYPE obs_test_seconds histogram");
  check_bool "+Inf bucket" true
    (contains text "obs_test_seconds_bucket{le=\"+Inf\"} 2");
  check_bool "count series" true (contains text "obs_test_seconds_count 2");
  check_bool "pool domain gauge" true (contains text "pool_domains")

let test_stats_table () =
  let table = Obs.Export.stats_table () in
  check_bool "has header" true (contains table "metric");
  check_bool "lists span histograms" true (contains table "span_duration_seconds")

(* ---------- Counters on histograms + snapshot persistence ---------- *)

let test_counters_report_from_hist () =
  let t = Engine.Counters.create () in
  Engine.Counters.note_replan t ~seconds:0.01;
  Engine.Counters.note_replan t ~seconds:0.02;
  Engine.Counters.note_replan t ~seconds:0.03;
  let r = Engine.Counters.report t ~evals:0 ~eager_equiv:0 in
  check_int "samples" 3 r.Engine.Counters.replan_latency.Prelude.Stats.count;
  check_float_loose "mean" 0.02
    r.Engine.Counters.replan_latency.Prelude.Stats.mean;
  check_float "min" 0.01 r.Engine.Counters.replan_latency.Prelude.Stats.min;
  check_float "max" 0.03 r.Engine.Counters.replan_latency.Prelude.Stats.max

let churn_world seed =
  let inst = random_mmd ~seed ~num_streams:25 ~num_users:16 ~m:2 ~mc:1 ~skew:4. in
  let rng = Prelude.Rng.create (seed + 1) in
  let log =
    Engine.Churn.generate ~rng
      (Engine.View.of_instance inst)
      { Engine.Churn.default with deltas = 80 }
  in
  (inst, log)

let test_snapshot_persists_latency_hists () =
  let inst, log = churn_world 11 in
  let ctrl = C.create ~policy:(C.Every 16) inst in
  C.apply_all ctrl log;
  Engine.Counters.note_recovery (C.counters ctrl) ~seconds:0.005;
  let before = C.report ctrl in
  let n_replans = before.Engine.Counters.replan_latency.Prelude.Stats.count in
  check_bool "samples exist pre-snapshot" true (n_replans > 0);
  let restored =
    match Engine.Snapshot.load_result (Engine.Snapshot.save ctrl) with
    | Ok c -> c
    | Error m -> failwith m
  in
  let after = C.report restored in
  check_int "replan samples survive the restore" n_replans
    after.Engine.Counters.replan_latency.Prelude.Stats.count;
  check_int "recovery samples survive the restore" 1
    after.Engine.Counters.recovery_latency.Prelude.Stats.count;
  check_float_loose "recovery p50 survives" 0.005
    after.Engine.Counters.recovery_latency.Prelude.Stats.p50;
  check_float "aggregate latency sum survives"
    (Obs.Hist.sum (Engine.Counters.replan_hist (C.counters ctrl)))
    (Obs.Hist.sum (Engine.Counters.replan_hist (C.counters restored)))

let test_snapshot_without_hists_still_loads () =
  (* Version gate: files predating the histogram field (v1, older v2)
     load with empty histograms, as before this PR. *)
  let inst, log = churn_world 12 in
  let ctrl = C.create ~policy:(C.Every 16) inst in
  C.apply_all ctrl log;
  let text = Engine.Snapshot.save ctrl in
  let body_lines =
    match String.index_opt text '\n' with
    | Some i ->
        String.split_on_char '\n'
          (String.sub text (i + 1) (String.length text - i - 1))
    | None -> []
  in
  let stripped =
    List.filter
      (fun l -> not (String.length l >= 5 && String.sub l 0 5 = "hist "))
      body_lines
  in
  let v1_text =
    "mmd-engine-snapshot v1\n" ^ String.concat "\n" stripped
  in
  let restored =
    match Engine.Snapshot.load_result v1_text with
    | Ok c -> c
    | Error m -> failwith m
  in
  check_float "state restored" (C.utility ctrl) (C.utility restored);
  let r = C.report restored in
  check_int "latency samples restart empty" 0
    r.Engine.Counters.replan_latency.Prelude.Stats.count

let suite =
  [ Alcotest.test_case "clock is monotone" `Quick test_clock_monotone;
    Alcotest.test_case "clock measures wall, not CPU" `Quick
      test_clock_wall_not_cpu;
    Alcotest.test_case "wall-clock latency under the domain pool" `Quick
      test_wall_clock_under_pool;
    Alcotest.test_case "supervised replan reports wall time" `Quick
      test_supervised_replan_wall_time;
    qcheck_hist_roundtrip;
    qcheck_hist_merge;
    Alcotest.test_case "hist: single-sample quantiles exact" `Quick
      test_hist_single_sample_quantiles;
    Alcotest.test_case "hist: quantiles within one log bucket" `Quick
      test_hist_quantile_accuracy;
    Alcotest.test_case "hist: mean/stddev/min/max exact" `Quick
      test_hist_summary_moments;
    Alcotest.test_case "hist: empty summary" `Quick test_hist_empty_summary;
    Alcotest.test_case "hist: decode rejects garbage" `Quick
      test_hist_decode_rejects_garbage;
    Alcotest.test_case "span JSONL is well-formed" `Quick
      test_span_jsonl_wellformed;
    Alcotest.test_case "spans nest" `Quick test_span_nesting;
    Alcotest.test_case "spans nest across pool tasks" `Quick
      test_span_nesting_across_pool;
    Alcotest.test_case "span context survives exceptions" `Quick
      test_span_exception_safe;
    Alcotest.test_case "note_quarantined aggregates in exported metrics"
      `Quick test_quarantine_aggregates_in_metrics;
    Alcotest.test_case "registry is idempotent and kind-checked" `Quick
      test_registry_idempotent_and_typed;
    Alcotest.test_case "prometheus export format" `Quick
      test_prometheus_export_format;
    Alcotest.test_case "stats table renders" `Quick test_stats_table;
    Alcotest.test_case "counters report from histograms" `Quick
      test_counters_report_from_hist;
    Alcotest.test_case "snapshot persists latency histograms" `Quick
      test_snapshot_persists_latency_hists;
    Alcotest.test_case "histogram-less snapshots still load" `Quick
      test_snapshot_without_hists_still_loads ]
