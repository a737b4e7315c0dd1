(* Fault-injection and crash-recovery: the WAL quarantines damage
   instead of dying, snapshots survive torn writes, a crash at any
   delta boundary restores to a bit-identical run, and every plan
   served after a fault is feasible. *)

open Helpers
module D = Engine.Delta
module V = Engine.View
module P = Engine.Planner
module C = Engine.Controller
module W = Engine.Wal
module F = Engine.Fault
module S = Engine.Snapshot
module K = Engine.Checkpoint

let world seed =
  let rng = Prelude.Rng.create seed in
  let inst =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams = 20;
        num_users = 12;
        m = 2;
        mc = 1;
        density = 0.3;
        budget_fraction = 0.3 }
  in
  let log =
    Engine.Churn.generate ~rng (V.of_instance inst)
      { Engine.Churn.default with deltas = 100 }
  in
  (inst, log)

let plan_text ctrl = Mmd.Io.assignment_to_string (C.plan ctrl)

(* ---------- CRC32 ---------- *)

let test_crc32_vectors () =
  (* The standard check value for CRC-32/ISO-HDLC. *)
  check_bool "check vector" true
    (Prelude.Crc32.digest "123456789" = 0xcbf43926l);
  check_bool "empty" true (Prelude.Crc32.digest "" = 0l);
  let h = Prelude.Crc32.to_hex (Prelude.Crc32.digest "123456789") in
  check_bool "hex round-trip" true
    (Prelude.Crc32.of_hex h = Some 0xcbf43926l);
  check_bool "chaining" true
    (Prelude.Crc32.digest ~init:(Prelude.Crc32.digest "hello ") "world"
    = Prelude.Crc32.digest "hello world");
  check_bool "sub" true
    (Prelude.Crc32.digest_sub "xx123456789yy" ~pos:2 ~len:9 = 0xcbf43926l)

(* ---------- WAL framing ---------- *)

let test_wal_roundtrip () =
  let _, log = world 3 in
  let text = W.to_string log in
  check_bool "is_wal" true (W.is_wal text);
  check_bool "plain log is not a wal" false (W.is_wal (D.log_to_string log));
  match W.recover_string text with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      check_int "all records recovered" (List.length log)
        (List.length r.W.records);
      check_int "no quarantine" 0 (List.length r.W.quarantined);
      check_bool "no torn tail" false r.W.torn_tail;
      check_int "last seq" (List.length log) r.W.last_seq;
      List.iteri
        (fun i (seq, d) ->
          check_int "seq dense" (i + 1) seq;
          check_bool "delta survives" true (d = List.nth log i))
        r.W.records

let test_wal_record_rejects_wrong_seq () =
  let d = D.User_leave 3 in
  let line = W.record_to_string ~seq:5 d in
  (match W.record_of_string line with
  | Ok (5, d') -> check_bool "payload" true (d = d')
  | Ok _ -> Alcotest.fail "wrong seq accepted"
  | Error msg -> Alcotest.fail msg);
  (* Re-framing the same payload+crc at another position must fail:
     the checksum covers the sequence number. *)
  let forged =
    match String.index_opt line ' ' with
    | Some i -> "6" ^ String.sub line i (String.length line - i)
    | None -> assert false
  in
  match W.record_of_string forged with
  | Error msg -> check_bool "mentions checksum" true (contains msg "checksum")
  | Ok _ -> Alcotest.fail "replayed record accepted"

(* Corruption never kills recovery: every damaged record is
   quarantined with its line number, every clean record survives
   verbatim. *)
let corruption_prop (seed, hits) =
  let _, log = world seed in
  let n = List.length log in
  let rng = Prelude.Rng.create (seed lxor 0x5eed) in
  let original = W.to_string log in
  let text = ref original in
  for _ = 1 to hits do
    text := F.corrupt_text ~rng !text
  done;
  if !text = original then true (* XOR flips cancelled out: nothing to find *)
  else
    match W.recover_string !text with
  | Error _ -> false
  | Ok r ->
      let survived = List.length r.W.records in
      let quarantined = List.length r.W.quarantined in
      survived + quarantined = n
      && quarantined >= 1
      && quarantined <= hits
      && List.for_all
           (fun (seq, d) -> d = List.nth log (seq - 1))
           r.W.records

let qcheck_wal_corruption =
  qtest ~count:40 "wal: corrupted records quarantined, rest survive"
    QCheck2.Gen.(pair (int_range 1 5_000) (int_range 1 8))
    corruption_prop

(* A torn write (truncation anywhere after the magic line) yields a
   verbatim prefix of the original records. *)
let torn_tail_prop (seed, frac) =
  let _, log = world seed in
  let text = W.to_string log in
  let header_len = String.length W.magic + 1 in
  let cut =
    header_len
    + int_of_float (frac *. float (String.length text - header_len))
  in
  let cut = min (String.length text - 1) (max header_len cut) in
  let torn = String.sub text 0 cut in
  match W.recover_string torn with
  | Error _ -> false
  | Ok r ->
      List.length r.W.quarantined <= 1
      && List.for_all
           (fun (seq, d) -> d = List.nth log (seq - 1))
           r.W.records
      && (* seqs are a dense prefix *)
      List.mapi (fun i _ -> i + 1) r.W.records
      = List.map fst r.W.records

let qcheck_wal_torn_tail =
  qtest ~count:40 "wal: torn tail recovers to the last good record"
    QCheck2.Gen.(pair (int_range 1 5_000) (float_range 0. 0.999))
    torn_tail_prop

(* ---------- Crash-safe snapshots ---------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "vdmc-resilience" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_snapshot_checksum_detects_damage () =
  let inst, log = world 5 in
  let ctrl = C.create ~policy:(C.Every 16) inst in
  C.apply_all ctrl log;
  let text = S.save ctrl in
  check_bool "well-formed loads" true (Result.is_ok (S.load_result text));
  (* Single flipped byte in the body -> checksum mismatch, not a
     parse explosion. *)
  let rng = Prelude.Rng.create 1 in
  (match S.load_result (F.corrupt_text ~rng text) with
  | Error msg -> check_bool "names the checksum" true (contains msg "checksum")
  | Ok _ -> Alcotest.fail "corrupted snapshot accepted");
  (* Truncation -> distinct torn-write diagnosis. *)
  match S.load_result (String.sub text 0 (String.length text / 2)) with
  | Error msg -> check_bool "names truncation" true (contains msg "truncated")
  | Ok _ -> Alcotest.fail "truncated snapshot accepted"

(* Damage the decoder must catch behind a valid envelope: the edited
   body is re-framed, so length and CRC check out. *)
let test_snapshot_decoder_rejects () =
  let inst, log = world 5 in
  let ctrl = C.create ~policy:(C.Every 16) inst in
  C.apply_all ctrl log;
  let text = S.save ctrl in
  let nl = String.index text '\n' in
  let lines =
    String.split_on_char '\n'
      (String.sub text (nl + 1) (String.length text - nl - 1))
  in
  let reframe lines =
    let body = String.concat "\n" lines in
    K.frame_header ~tag:"mmd-engine-snapshot v3" ~covers:(C.deltas_applied ctrl)
      body
    ^ body
  in
  let is_pslot l = String.length l > 6 && String.sub l 0 6 = "pslot " in
  let rec edit f = function
    | l :: rest when is_pslot l -> f l @ rest
    | l :: rest -> l :: edit f rest
    | [] -> []
  in
  let expect what text needle =
    match S.load_result text with
    | Error msg ->
        if not (contains msg needle) then
          Alcotest.failf "%s: expected %S in %S" what needle msg
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  check_bool "re-framed original loads" true
    (Result.is_ok (S.load_result (reframe lines)));
  expect "missing pslot"
    (reframe (edit (fun _ -> []) lines))
    "slot 0 has no pslot line";
  expect "duplicate pslot"
    (reframe (edit (fun l -> [ l; l ]) lines))
    "duplicate pslot line for slot 0";
  let v2 =
    "mmd-engine-snapshot v2" ^ String.sub text 22 (String.length text - 22)
  in
  expect "other version" v2 "mmd-engine-snapshot v2"

let test_snapshot_generation_fallback () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "state.eng" in
      let inst, log = world 7 in
      let ctrl = C.create ~policy:(C.Every 16) inst in
      let front, back =
        let rec split i acc = function
          | rest when i = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | d :: rest -> split (i - 1) (d :: acc) rest
        in
        split 50 [] log
      in
      C.apply_all ctrl front;
      S.write_file path ctrl;
      let u_gen1 = C.utility ctrl in
      C.apply_all ctrl back;
      S.write_file path ctrl;
      check_bool "previous generation kept" true
        (Sys.file_exists (S.previous_path path));
      (* Undamaged: current generation loads. *)
      (match S.read_file_result path with
      | Ok (r, S.Current) -> check_float "current utility" (C.utility ctrl) (C.utility r)
      | Ok (_, S.Previous) -> Alcotest.fail "fell back without damage"
      | Error msg -> Alcotest.fail msg);
      (* Tear the current generation mid-write: load falls back. *)
      let text = S.save ctrl in
      let oc = open_out_bin path in
      output_string oc (String.sub text 0 (String.length text / 3));
      close_out oc;
      match S.read_file_result path with
      | Ok (r, S.Previous) -> check_float "fallback utility" u_gen1 (C.utility r)
      | Ok (_, S.Current) -> Alcotest.fail "damaged generation accepted"
      | Error msg -> Alcotest.fail msg)

(* The recovery rule reads a snapshot's coverage from its envelope
   line; when that line is damaged it reads the previous generation's,
   the one the load then falls back to. *)
let test_snapshot_peek_fallback () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "state.eng" in
      let inst, log = world 7 in
      let ctrl = C.create ~policy:(C.Every 16) inst in
      C.apply_all ctrl (List.filteri (fun i _ -> i < 50) log);
      S.write_file path ctrl;
      C.apply_all ctrl (List.filteri (fun i _ -> i >= 50) log);
      S.write_file path ctrl;
      check_bool "current coverage" true
        (S.peek_deltas_applied path = Some (List.length log));
      let text = S.save ctrl in
      let body = String.index text '\n' in
      let oc = open_out_bin path in
      output_string oc
        ("mmd-engine-snapshot v3 damaged"
        ^ String.sub text body (String.length text - body));
      close_out oc;
      check_bool "previous coverage" true
        (S.peek_deltas_applied path = Some 50);
      match S.read_file_result path with
      | Ok (r, S.Previous) -> check_int "restores it" 50 (C.deltas_applied r)
      | Ok (_, S.Current) -> Alcotest.fail "damaged generation accepted"
      | Error msg -> Alcotest.fail msg)

(* The snapshot's increment carries no budget or cost line: the
   catalog alone must bring back the costs a budget resize clamped and
   a cost change set, bit for bit. *)
let test_snapshot_costs_from_catalog () =
  let inst, log = world 11 in
  let ctrl = C.create ~policy:(C.Every 16) inst in
  let v = C.view ctrl in
  let m = V.m v in
  C.apply_all ctrl (List.filteri (fun i _ -> i < 40) log);
  let budgets = Array.init m (fun i -> V.budget v i *. 0.37) in
  ignore (C.apply ctrl (D.Budget_resize budgets));
  ignore
    (C.apply ctrl
       (D.Stream_cost_change
          { stream = 3; costs = Array.init m (fun i -> V.budget v i /. 3.) }));
  C.apply_all ctrl (List.filteri (fun i _ -> i >= 40) log);
  let text = S.save ctrl in
  let increment =
    let marker = "%%increment\n" in
    let rec find i =
      if String.sub text i (String.length marker) = marker then
        String.sub text i (String.length text - i)
      else find (i + 1)
    in
    find 0
  in
  check_bool "no budget line in the increment" false
    (contains increment "\nbudget");
  check_bool "no cost line in the increment" false
    (contains increment "\ncost ");
  match S.load_result text with
  | Error msg -> Alcotest.fail msg
  | Ok restored ->
      let rv = C.view restored in
      let bits = Int64.bits_of_float in
      let same_floats n f g =
        List.for_all (fun i -> bits (f i) = bits (g i)) (List.init n Fun.id)
      in
      check_bool "budgets bit-identical" true
        (same_floats m (V.budget v) (V.budget rv));
      check_bool "costs bit-identical" true
        (List.for_all
           (fun s -> same_floats m (V.server_cost v s) (V.server_cost rv s))
           (List.init (V.num_streams v) Fun.id));
      check_bool "plan identical" true (plan_text restored = plan_text ctrl);
      check_bool "re-encodes byte-identically" true (S.save restored = text)

(* ---------- Crash at any boundary: bit-identical recovery ---------- *)

let crash_recovery_prop (seed, cut_frac, policy) =
  let inst, log = world seed in
  let n = List.length log in
  let k = max 0 (min (n - 1) (int_of_float (cut_frac *. float n))) in
  (* Uninterrupted reference run. *)
  let ref_ctrl = C.create ~policy inst in
  C.apply_all ref_ctrl log;
  C.replan ref_ctrl;
  (* Crashed run: apply k deltas, snapshot, "crash", restore from the
     snapshot text, replay the tail from the WAL (skipping the records
     the snapshot covers). *)
  let ctrl = C.create ~policy inst in
  let wal = W.to_string log in
  let records =
    match W.recover_string wal with Ok r -> r.W.records | Error m -> failwith m
  in
  List.iteri (fun i (_, d) -> if i < k then ignore (C.apply ctrl d)) records;
  let snapshot = S.save ctrl in
  let restored =
    match S.load_result snapshot with Ok c -> c | Error m -> failwith m
  in
  (* The snapshot re-encodes byte-identically, and restores the same
     state as a one-increment checkpoint chain of the crashed run. *)
  let reencoded = S.save restored = snapshot in
  let chain_path = Filename.temp_file "crash" ".ckpt" in
  Sys.remove chain_path;
  let w = K.create_writer ~path:chain_path ctrl in
  K.checkpoint w ctrl;
  K.close_writer w;
  let chain_state =
    match K.recover ~instance:inst ~path:chain_path with
    | Ok r -> S.save r.K.ctrl
    | Error m -> failwith m
  in
  Sys.remove chain_path;
  let covered = C.deltas_applied restored in
  List.iter
    (fun (seq, d) -> if seq > covered then ignore (C.apply restored d))
    records;
  C.replan restored;
  covered = k && reencoded && chain_state = snapshot
  && C.utility restored = C.utility ref_ctrl
  && plan_text restored = plan_text ref_ctrl
  && C.deltas_applied restored = C.deltas_applied ref_ctrl
  && Engine.Counters.replans (C.counters restored)
     = Engine.Counters.replans (C.counters ref_ctrl)

let qcheck_crash_recovery =
  qtest ~count:40 "crash at any boundary: snapshot+wal replay bit-identical"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (float_range 0. 1.)
        (oneofl [ C.Every 8; C.Every 32; C.Drift 0.05; C.Manual ]))
    crash_recovery_prop

(* Pinned inputs where recovery used to diverge: late cuts tripped the
   hash-table iteration order of [View.interested] (live and restored
   views summed floats in different orders, off by an ulp after the
   next replan), and seed 54 dropped a transmitted-but-undelivered
   stream on restore, shifting a drift-policy replan by one delta. *)
let test_crash_recovery_regressions () =
  List.iter
    (fun (seed, cut, policy, what) ->
      check_bool what true (crash_recovery_prop (seed, cut, policy)))
    [ (2, 0.95, C.Manual, "seed 2, cut 0.95, manual");
      (48, 0.95, C.Every 8, "seed 48, cut 0.95, every:8");
      (76, 0.95, C.Every 32, "seed 76, cut 0.95, every:32");
      (87, 0.95, C.Drift 0.05, "seed 87, cut 0.95, drift");
      (54, 0.77, C.Drift 0.05, "seed 54, cut 0.77, drift") ]

(* ---------- Feasibility after faults ---------- *)

let feasibility_prop (seed, fault_count) =
  let inst, log = world seed in
  let rng = Prelude.Rng.create (seed + 1) in
  let schedule =
    F.generate ~rng ~deltas:(List.length log)
      ~num_streams:(Mmd.Instance.num_streams inst)
      ~count:fault_count
  in
  let ctrl = C.create ~policy:(C.Every 16) inst in
  let ok = ref true in
  List.iteri
    (fun i d ->
      ignore (C.apply ctrl d);
      List.iter
        (fun (e : F.event) ->
          match F.shock_delta (C.view ctrl) e.F.kind with
          | Some shock ->
              let r = C.absorb_shock ctrl shock in
              if r.C.utility_sacrificed < 0. then ok := false;
              if not (C.is_plan_feasible ctrl) then ok := false
          | None -> ())
        (F.at schedule (i + 1));
      (* The served plan is feasible at every boundary, shock or not. *)
      if not (C.is_plan_feasible ctrl) then ok := false)
    log;
  (* A final replan clears any degraded state and is still feasible. *)
  C.replan ctrl;
  !ok && (not (C.degraded ctrl)) && C.is_plan_feasible ctrl

let qcheck_feasibility_after_faults =
  qtest ~count:40 "every plan served after a fault is feasible"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 1 10))
    feasibility_prop

let test_budget_shock_degrades_and_replan_recovers () =
  let inst, log = world 11 in
  let ctrl = C.create ~policy:C.Manual inst in
  C.apply_all ctrl log;
  C.replan ctrl;
  (* Violent shock: quarter of every finite budget. *)
  let shock =
    match F.shock_delta (C.view ctrl) (F.Budget_shock 0.25) with
    | Some d -> d
    | None -> Alcotest.fail "no shock delta"
  in
  let r = C.absorb_shock ctrl shock in
  check_bool "evictions happened" true (r.C.evictions > 0);
  check_bool "utility sacrificed" true (r.C.utility_sacrificed > 0.);
  check_bool "degraded" true (C.degraded ctrl);
  check_bool "still feasible" true (C.is_plan_feasible ctrl);
  let f, _, rec_, _ = Engine.Counters.resilience_fields (C.counters ctrl) in
  check_int "fault counted" 1 f;
  check_int "recovery counted" 1 rec_;
  C.replan ctrl;
  check_bool "replan clears degraded" false (C.degraded ctrl);
  check_bool "feasible after replan" true (C.is_plan_feasible ctrl)

let test_restore_feasibility_noop_when_feasible () =
  let inst, _ = world 13 in
  let ctrl = C.create inst in
  let r = C.restore_feasibility ctrl in
  check_int "no evictions" 0 r.C.evictions;
  check_float "no utility lost" 0. r.C.utility_sacrificed;
  check_bool "not degraded" false (C.degraded ctrl)

(* ---------- Supervisor ---------- *)

let test_supervisor_retries_transient_fault () =
  let inst, log = world 17 in
  let ctrl = C.create ~policy:C.Manual inst in
  C.apply_all ctrl log;
  let outcome =
    Engine.Supervisor.supervised_replan
      ~inject:(fun ~attempt ->
        if attempt < 2 then Engine.Fault.raise_in_pool ())
      ctrl
  in
  check_int "two retries used" 2 outcome.Engine.Supervisor.retries;
  check_bool "no fallback" false outcome.Engine.Supervisor.fell_back;
  check_bool "backoff accumulated" true
    (outcome.Engine.Supervisor.backoff_waited > 0.);
  check_bool "plan feasible" true (C.is_plan_feasible ctrl);
  let scratch_util, _ = C.scratch (C.view ctrl) in
  check_float_loose "replan completed on the retry" scratch_util
    (C.utility ctrl)

let test_supervisor_falls_back_on_persistent_fault () =
  let inst, log = world 19 in
  let ctrl = C.create ~policy:C.Manual inst in
  C.apply_all ctrl log;
  let before = plan_text ctrl in
  let u_before = C.utility ctrl in
  let outcome =
    Engine.Supervisor.supervised_replan
      ~config:
        { Engine.Supervisor.default_supervisor with max_retries = 2 }
      ~inject:(fun ~attempt:_ -> Engine.Fault.raise_in_pool ())
      ctrl
  in
  check_bool "fell back" true outcome.Engine.Supervisor.fell_back;
  check_int "all retries burned" 2 outcome.Engine.Supervisor.retries;
  check_bool "last feasible plan restored" true (plan_text ctrl = before);
  check_float "utility preserved" u_before (C.utility ctrl);
  check_bool "plan feasible" true (C.is_plan_feasible ctrl);
  let _, _, recoveries, fallbacks =
    Engine.Counters.resilience_fields (C.counters ctrl)
  in
  check_int "fallback counted" 1 fallbacks;
  check_bool "recovery counted" true (recoveries >= 1)

let test_chaos_simulation_run () =
  let inst, _ = world 23 in
  let rng = Prelude.Rng.create 6 in
  let faults =
    Engine.Fault.generate ~rng:(Prelude.Rng.create 60) ~deltas:60
      ~num_streams:(Mmd.Instance.num_streams inst)
      ~count:12
  in
  let stats =
    Simnet.Engine_driver.run ~rng ~duration:300. ~join_rate:0.3
      ~mean_dwell:80. ~faults
      (Engine.S.of_controller (C.create ~policy:(C.Drift 0.05) inst))
  in
  check_bool "faults were injected" true
    (stats.Simnet.Engine_driver.report.Engine.Counters.faults > 0);
  check_bool "population churned" true (stats.Simnet.Engine_driver.joins > 0);
  check_bool "utility accrued" true
    (stats.Simnet.Engine_driver.utility_time > 0.)

let suite =
  [ Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "wal round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal rejects repositioned record" `Quick
      test_wal_record_rejects_wrong_seq;
    qcheck_wal_corruption;
    qcheck_wal_torn_tail;
    Alcotest.test_case "snapshot checksum detects damage" `Quick
      test_snapshot_checksum_detects_damage;
    Alcotest.test_case "snapshot peek falls back to the previous generation"
      `Quick test_snapshot_peek_fallback;
    Alcotest.test_case "snapshot costs come from the catalog" `Quick
      test_snapshot_costs_from_catalog;
    Alcotest.test_case "snapshot generation fallback" `Quick
      test_snapshot_generation_fallback;
    Alcotest.test_case "snapshot decoder rejects pslot damage and v2" `Quick
      test_snapshot_decoder_rejects;
    qcheck_crash_recovery;
    Alcotest.test_case "crash recovery regressions (ulp order, admitted set)"
      `Quick test_crash_recovery_regressions;
    qcheck_feasibility_after_faults;
    Alcotest.test_case "budget shock degrades, replan recovers" `Quick
      test_budget_shock_degrades_and_replan_recovers;
    Alcotest.test_case "restore_feasibility no-op when feasible" `Quick
      test_restore_feasibility_noop_when_feasible;
    Alcotest.test_case "supervisor retries transient fault" `Quick
      test_supervisor_retries_transient_fault;
    Alcotest.test_case "supervisor falls back on persistent fault" `Quick
      test_supervisor_falls_back_on_persistent_fault;
    Alcotest.test_case "chaos simulation run" `Quick test_chaos_simulation_run
  ]
