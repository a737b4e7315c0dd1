(* The benchmark's own tests: every workload at smoke size with all
   checks on, determinism of the generated inputs, and agreement of the
   printed metrics with BENCHMARK.json. *)

module B = Perfbench_core.Bench
module I = Perfbench_core.Inputs

let out = "_run"

(* Metric names declared in one array of BENCHMARK.json, found by
   scanning for "name" keys between the array's brackets. *)
let declared key =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then raise Not_found
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let start = find (Printf.sprintf "\"%s\"" key) 0 in
  let stop = find "]" start in
  let rec names from acc =
    match find "\"name\": \"" from with
    | i when i < stop ->
        let j = i + String.length "\"name\": \"" in
        let k = String.index_from text j '"' in
        names k (String.sub text j (k - j) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  names start []

let names ms = List.map (fun m -> m.B.name) ms

let smoke spec () =
  let r = B.run ~out (I.smoke spec) ~seed:7 ~seconds:0.1 ~trace:true in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) ("check " ^ name) true ok)
    r.B.checks;
  Alcotest.(check bool) "correct" true r.B.correct;
  Alcotest.(check int) "failed" 0 r.B.failed;
  Alcotest.(check (list string)) "per-layer metrics" (declared "per_layer") (names r.B.metrics);
  let e2e = declared "end_to_end" in
  Alcotest.(check (list string))
    "end-to-end metrics" e2e
    (List.filter (fun n -> List.mem n e2e) (names r.B.extra));
  List.iter
    (fun m ->
      if List.mem m.B.name e2e then
        Alcotest.(check bool) (m.B.name ^ " is positive") true (m.B.value > 0.))
    r.B.extra;
  Alcotest.(check bool) "result line is JSON" true
    (Result.is_ok (Obs.Json.validate (B.result_line r)))

let inputs spec seed = I.make (I.smoke spec) ~seed ~seconds:0.1

let same_seed spec () =
  let a = inputs spec 11 and b = inputs spec 11 in
  Alcotest.(check string) "log" (I.log_text a) (I.log_text b);
  Alcotest.(check (array string)) "warm-up" a.I.warmup b.I.warmup;
  Alcotest.(check (array string)) "crash tail" a.I.crash_tail b.I.crash_tail;
  let utility () =
    let r = B.run ~out (I.smoke spec) ~seed:11 ~seconds:0.1 ~trace:false in
    Int64.bits_of_float
      (List.find (fun m -> m.B.name = "utility") r.B.metrics).B.value
  in
  Alcotest.(check int64) "utility bits" (utility ()) (utility ())

let other_seed spec () =
  Alcotest.(check bool) "logs differ" false
    (I.log_text (inputs spec 11) = I.log_text (inputs spec 12))

let () =
  let per_workload name f =
    (name, List.map (fun s -> Alcotest.test_case s.I.name `Quick (f s)) I.all)
  in
  Alcotest.run "perfbench"
    [ per_workload "smoke" smoke;
      per_workload "same seed" same_seed;
      per_workload "other seed" other_seed ]
