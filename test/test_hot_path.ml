(* Hot-path overhaul invariants: batched delta application is
   bit-identical to one-at-a-time applies (whatever the batch size,
   epoch policy, shard count or domain count — the chaos matrix runs
   this suite under every VDMC_DOMAINS × VDMC_SHARDS combination), and
   a checkpoint-chain + compacted-segmented-WAL recovery reproduces
   the uninterrupted run bit-exactly from any crash boundary. *)

open Helpers
module C = Engine.Controller
module V = Engine.View
module WS = Engine.Wal_store
module K = Engine.Checkpoint
module R = Engine.Recovery

let world ?(deltas = 100) seed =
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
      { Engine.Churn.default with deltas }
  in
  (inst, log)

let plan_text ctrl = Mmd.Io.assignment_to_string (C.plan ctrl)

let chunk batch log =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | d :: rest ->
        if k = batch then go (List.rev cur :: acc) [ d ] 1 rest
        else go acc (d :: cur) (k + 1) rest
  in
  go [] [] 0 log

let same_state a b =
  C.utility a = C.utility b
  && plan_text a = plan_text b
  && C.deltas_applied a = C.deltas_applied b
  && Engine.Counters.replans (C.counters a)
     = Engine.Counters.replans (C.counters b)

let with_tmp_dir f =
  let dir = Filename.temp_file "vdmc-hotpath" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* ---------- apply_batch ≡ apply, at every batch size ---------- *)

let batch_identity_prop (seed, batch, policy) =
  let inst, log = world seed in
  let one = C.create ~policy inst in
  List.iter (fun d -> ignore (C.apply one d)) log;
  let batched = C.create ~policy inst in
  List.iter (fun g -> C.apply_batch batched g) (chunk batch log);
  same_state one batched

let qcheck_batch_identity =
  qtest ~count:60 "apply_batch bit-identical to apply at any batch size"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 300)
        (oneofl [ C.Every 8; C.Every 32; C.Drift 0.05; C.Manual ]))
    batch_identity_prop

(* The sharded router's batch entry point: same plans, same replans,
   same WAL-visible ordering as routing one delta at a time. *)
let sharded_batch_identity_prop (seed, batch, shards) =
  let inst, log = world seed in
  let mk () =
    Shard.Router.create ~policy:(C.Every 16)
      ~map:
        (Shard.Shard_map.create
           ~tags:(Array.init shards (fun i -> Printf.sprintf "r%d" (i mod 2)))
           ())
      inst
  in
  let one = mk () in
  List.iter (fun d -> ignore (Shard.Router.apply one d)) log;
  let batched = mk () in
  List.iter (fun g -> Shard.Router.apply_batch batched g) (chunk batch log);
  let same =
    Shard.Router.utility one = Shard.Router.utility batched
    && Shard.Router.counts one = Shard.Router.counts batched
    && (Shard.Router.report one).Engine.Counters.replans
       = (Shard.Router.report batched).Engine.Counters.replans
  in
  Shard.Router.close one;
  Shard.Router.close batched;
  same

let qcheck_sharded_batch_identity =
  qtest ~count:30 "router apply_batch bit-identical across shard counts"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 128) (int_range 1 5))
    sharded_batch_identity_prop

(* The DES driver's deferred-departure buffer: stats are bit-identical
   at every batch because the buffer drains before each observation.
   The same holds across the engines behind the one [run]: a 1-shard
   router (mode 1) and a fault-free replica group (mode 2) must
   simulate exactly what a plain controller (mode 0) does. *)
let des_engine mode inst =
  let policy = C.Drift 0.05 in
  match mode with
  | 0 -> Engine.S.of_controller (C.create ~policy inst)
  | 1 ->
      let map = Shard.Shard_map.create ~tags:[| "rack0" |] () in
      Shard.Router.engine (Shard.Router.create ~policy ~map inst)
  | _ -> Replica.Chaos.engine (Replica.Group.create ~policy ~replicas:2 inst)

let des_batch_identity_prop (seed, batch, mode) =
  let inst, _ = world seed in
  let run batch (e : Engine.S.t) =
    let stats =
      Simnet.Engine_driver.run
        ~rng:(Prelude.Rng.create (seed * 3))
        ~duration:400. ~join_rate:0.3 ~mean_dwell:100. ~batch e
    in
    e.close ();
    stats
  in
  let a = run 1 (des_engine 0 inst) in
  let b = run batch (des_engine mode inst) in
  a.Simnet.Engine_driver.utility_time = b.Simnet.Engine_driver.utility_time
  && a.Simnet.Engine_driver.final_utility
     = b.Simnet.Engine_driver.final_utility
  && a.Simnet.Engine_driver.joins = b.Simnet.Engine_driver.joins
  && a.Simnet.Engine_driver.leaves = b.Simnet.Engine_driver.leaves
  && a.Simnet.Engine_driver.report.Engine.Counters.replans
     = b.Simnet.Engine_driver.report.Engine.Counters.replans

let qcheck_des_batch_identity =
  qtest ~count:30 "simulation stats bit-identical at every batch"
    QCheck2.Gen.(triple (int_range 1 10_000) (int_range 1 64) (int_range 0 2))
    des_batch_identity_prop

(* ---------- chain + compacted store: crash anywhere ---------- *)

(* Crash after [k] of [n] deltas with checkpoints every
   [checkpoint_every] and segments of [segment_records]; recover from
   the chain plus the compacted store's tail; then finish the
   remaining log on the recovered controller. The result must be
   bit-identical to the run that never crashed. *)
let chain_recovery_prop (seed, cut_frac, checkpoint_every, segment_records) =
  let inst, log = world seed in
  let n = List.length log in
  let k = max 0 (min (n - 1) (int_of_float (cut_frac *. float n))) in
  let policy = C.Every 16 in
  let reference = C.create ~policy inst in
  List.iter (fun d -> ignore (C.apply reference d)) log;
  C.replan reference;
  with_tmp_dir (fun dir ->
      let chain_path = Filename.concat dir "chain.ckpt" in
      let store = WS.open_dir ~segment_records dir in
      let ctrl = C.create ~policy inst in
      let writer = K.create_writer ~path:chain_path ctrl in
      List.iteri
        (fun i d ->
          if i < k then begin
            ignore (WS.append_tee ~flush:false store d);
            K.note writer (C.apply ctrl d);
            if (i + 1) mod checkpoint_every = 0 then begin
              K.checkpoint writer ctrl;
              ignore (WS.compact store ~covered:(K.covered writer))
            end
          end)
        log;
      WS.close store;
      K.close_writer writer;
      (* "Power is back." A chain with no valid increment (crash before
         the first checkpoint) falls back to a fresh controller — the
         full-replay path. *)
      let restored, covered =
        match K.recover ~instance:inst ~path:chain_path with
        | Ok r -> (r.K.ctrl, r.K.covered)
        | Error _ -> (C.create ~policy inst, 0)
      in
      let records, first_seq =
        (* An empty directory (crash before the first append) recovers
           as an empty store. *)
        match WS.recover_dir dir with
        | Ok r -> (r.WS.records, r.WS.first_seq)
        | Error _ -> ([], 1)
      in
      (* Compaction must never delete past the chain's coverage. *)
      let compaction_safe = first_seq <= covered + 1 in
      List.iter
        (fun (seq, d) -> if seq > covered then ignore (C.apply restored d))
        records;
      let caught_up = C.deltas_applied restored = k in
      (* Continue the run where the crash interrupted it. *)
      List.iteri
        (fun i d -> if i >= k then ignore (C.apply restored d))
        log;
      C.replan restored;
      compaction_safe && caught_up && same_state restored reference)

let qcheck_chain_recovery =
  qtest ~count:40
    "chain + compacted store: crash anywhere, resume bit-identical"
    QCheck2.Gen.(
      quad (int_range 1 10_000) (float_range 0. 1.) (int_range 1 40)
        (int_range 1 32))
    chain_recovery_prop

(* ---------- Wal_store mechanics ---------- *)

let test_store_roll_resume_compact () =
  let _, log = world ~deltas:60 41 in
  with_tmp_dir (fun dir ->
      let store = WS.open_dir ~segment_records:10 dir in
      List.iter (fun d -> ignore (WS.append store d)) log;
      WS.close store;
      check_int "six segments" 6 (List.length (WS.segments dir));
      (* Reopen: appends resume after the last record on disk. *)
      let store = WS.open_dir ~segment_records:10 dir in
      check_int "resumes at 61" 61 (WS.next_seq store);
      ignore (WS.append store (Engine.Delta.User_leave 0));
      (* Compact away everything a checkpoint at 35 covers: segments
         1-10, 11-20, 21-30 go; 31-40 straddles the boundary and
         stays. *)
      let removed = WS.compact store ~covered:35 in
      check_int "three segments retired" 3 removed;
      WS.close store;
      match WS.recover_dir dir with
      | Error m -> Alcotest.fail m
      | Ok r ->
          check_int "first surviving seq" 31 r.WS.first_seq;
          check_int "last seq" 61 r.WS.last_seq;
          check_bool "no torn tail" false r.WS.torn_tail;
          check_int "records readable" 31 (List.length r.WS.records))

(* A crash between rolling a segment and its first record, after the
   checkpoint that compacted everything before it, leaves no record on
   disk; last_seq still counts the compacted ones, so that checkpoint
   stays usable. *)
let test_store_compacted_to_empty () =
  let _, log = world ~deltas:21 61 in
  with_tmp_dir (fun dir ->
      let store = WS.open_dir ~segment_records:10 dir in
      List.iter (fun d -> ignore (WS.append store d)) log;
      check_int "two segments retired" 2 (WS.compact store ~covered:20);
      WS.close store;
      (match WS.segments dir with
      | [ (21, path) ] ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (Engine.Wal.magic ^ "\n"))
      | _ -> Alcotest.fail "expected one segment from seq 21");
      match WS.recover_dir dir with
      | Error m -> Alcotest.fail m
      | Ok r ->
          check_int "first seq" 21 r.WS.first_seq;
          check_int "no record survives" 0 (List.length r.WS.records);
          check_int "last seq counts the compacted records" 20 r.WS.last_seq;
          check_bool "a checkpoint at 20 is usable" true
            (R.choose ~chain:20 ~first_seq:21 ~last_seq:20 ()
            = Ok { R.choice = R.Chain_tail; covers = 20 }))

let test_store_bytes_match_wal () =
  (* A segmented store's concatenated bytes are exactly a monolithic
     WAL's (magic per segment aside): same framing, same seqs. *)
  let _, log = world ~deltas:25 43 in
  with_tmp_dir (fun dir ->
      let store = WS.open_dir ~segment_records:1000 dir in
      List.iter (fun d -> ignore (WS.append store d)) log;
      WS.close store;
      match WS.segments dir with
      | [ (1, path) ] ->
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check_bool "single segment is a plain wal" true
            (text = Engine.Wal.to_string log)
      | l -> Alcotest.failf "expected one segment, got %d" (List.length l))

(* ---------- checkpoint chain mechanics ---------- *)

let test_chain_peek_and_torn_tail () =
  let inst, log = world ~deltas:80 47 in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "chain.ckpt" in
      let ctrl = C.create ~policy:(C.Every 16) inst in
      let w = K.create_writer ~path ctrl in
      List.iteri
        (fun i d ->
          K.note w (C.apply ctrl d);
          if (i + 1) mod 20 = 0 then K.checkpoint w ctrl)
        log;
      K.close_writer w;
      (match K.peek path with
      | Some (bytes, covered, increments) ->
          check_int "covers 80" 80 covered;
          check_int "four increments" 4 increments;
          check_bool "bytes positive" true (bytes > 0)
      | None -> Alcotest.fail "peek failed on a healthy chain");
      (* Tear the last increment: recovery falls back to the previous
         one, bit-identically. *)
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub text 0 (String.length text - 31));
      close_out oc;
      match (K.peek path, K.recover ~instance:inst ~path) with
      | Some (_, covered, increments), Ok r ->
          check_int "fell back to increment 3" 3 increments;
          check_int "covers 60" 60 covered;
          check_bool "torn suffix reported" true r.K.torn;
          check_int "recovered at 60" 60 (C.deltas_applied r.K.ctrl)
      | None, _ -> Alcotest.fail "peek failed after tear"
      | _, Error m -> Alcotest.fail m)

(* ---------- the recovery rule ---------- *)

(* [choose] as (path, coverage), [None] for an error. *)
let decide ?chain ?snapshot ~first_seq ~last_seq () =
  match R.choose ?chain ?snapshot ~first_seq ~last_seq () with
  | Ok d -> Some (d.R.choice, d.R.covers)
  | Error _ -> None

let test_coverage_rule () =
  let is what expected got = check_bool what true (got = expected) in
  let wal = decide ~first_seq:1 ~last_seq:1_000 in
  is "the chain covering more wins" (Some (R.Chain_tail, 950))
    (wal ~chain:950 ~snapshot:900 ());
  is "the snapshot covering more wins" (Some (R.Snapshot_tail, 990))
    (wal ~chain:950 ~snapshot:990 ());
  is "a tie goes to the snapshot" (Some (R.Snapshot_tail, 500))
    (wal ~chain:500 ~snapshot:500 ());
  is "a chain ahead of the WAL is unusable" (Some (R.Snapshot_tail, 10))
    (wal ~chain:1_001 ~snapshot:10 ());
  is "a snapshot ahead of the WAL is unusable" (Some (R.Full_replay, 0))
    (wal ~snapshot:1_001 ());
  is "an artifact at the WAL's end is usable" (Some (R.Chain_tail, 1_000))
    (wal ~chain:1_000 ());
  is "nothing usable replays in full" (Some (R.Full_replay, 0)) (wal ());
  (* A compacted WAL (records 1..400 gone) needs coverage of seq 400. *)
  let compacted = decide ~first_seq:401 ~last_seq:1_000 in
  is "a chain short of the gap is an error" None (compacted ~chain:399 ());
  is "nothing on a compacted WAL is an error" None (compacted ());
  is "a snapshot covering the gap gives snapshot+tail"
    (Some (R.Snapshot_tail, 450))
    (compacted ~chain:399 ~snapshot:450 ());
  is "coverage of exactly first_seq - 1 is enough" (Some (R.Chain_tail, 400))
    (compacted ~chain:400 ());
  match R.choose ~chain:399 ~first_seq:401 ~last_seq:1_000 () with
  | Error msg ->
      check_bool "the error names the gap" true
        (contains msg "gap")
  | Ok _ -> Alcotest.fail "chain short of the gap accepted"

(* A store compacted below seq 57 after a checkpoint at 60, a chain of
   its own that stops at 20, and a snapshot at 60: the chain cannot
   serve, the snapshot can, and snapshot + store tail reproduces the
   uninterrupted run. *)
let test_compacted_store_needs_cover () =
  let inst, log = world ~deltas:70 59 in
  let policy = C.Every 16 in
  let reference = C.create ~policy inst in
  List.iter (fun d -> ignore (C.apply reference d)) log;
  with_tmp_dir (fun dir ->
      let short_path = Filename.concat dir "short.ckpt" in
      let snap_path = Filename.concat dir "state.eng" in
      let store = WS.open_dir ~segment_records:8 dir in
      let ctrl = C.create ~policy inst in
      let short = K.create_writer ~path:short_path ctrl in
      List.iteri
        (fun i d ->
          ignore (WS.append_tee ~flush:false store d);
          K.note short (C.apply ctrl d);
          if i + 1 = 20 then K.checkpoint short ctrl;
          if i + 1 = 60 then begin
            Engine.Snapshot.write_file snap_path ctrl;
            ignore (WS.compact store ~covered:60)
          end)
        log;
      WS.close store;
      K.close_writer short;
      match WS.recover_dir dir with
      | Error m -> Alcotest.fail m
      | Ok r -> (
          check_int "compacted below seq 57" 57 r.WS.first_seq;
          let select =
            R.select ~first_seq:r.WS.first_seq ~last_seq:r.WS.last_seq
          in
          check_bool "the short chain alone is an error" true
            (Result.is_error (select ~chain_path:short_path ()));
          match select ~chain_path:short_path ~snapshot_path:snap_path () with
          | Error m -> Alcotest.fail m
          | Ok d ->
              check_bool "snapshot+tail" true (d.R.choice = R.Snapshot_tail);
              check_int "covers 60" 60 d.R.covers;
              let restored =
                Engine.Snapshot.load
                  (In_channel.with_open_bin snap_path In_channel.input_all)
              in
              List.iter
                (fun (seq, d) ->
                  if seq > 60 then ignore (C.apply restored d))
                r.WS.records;
              check_bool "bit-identical to the uninterrupted run" true
                (same_state restored reference)))

let test_assess_prefers_chain_on_disk () =
  let inst, log = world ~deltas:80 53 in
  with_tmp_dir (fun dir ->
      let chain_path = Filename.concat dir "chain.ckpt" in
      let snap_path = Filename.concat dir "none.eng" in
      let ctrl = C.create ~policy:(C.Every 16) inst in
      let w = K.create_writer ~path:chain_path ctrl in
      List.iteri
        (fun i d ->
          K.note w (C.apply ctrl d);
          if (i + 1) mod 20 = 0 then K.checkpoint w ctrl)
        log;
      K.close_writer w;
      let est = R.assess ~chain_path ~snapshot_path:snap_path
          ~total_records:85 ()
      in
      check_bool "chain beats full replay of 85" true
        (est.R.choice = R.Chain_tail);
      (* A chain that is ahead of the WAL (more coverage than records
         exist) is not a tail-replay situation. *)
      let est =
        R.assess ~chain_path ~snapshot_path:snap_path ~total_records:40 ()
      in
      check_bool "stale WAL falls back to replay" true
        (est.R.choice = R.Full_replay))

let suite =
  [ qcheck_batch_identity;
    qcheck_sharded_batch_identity;
    qcheck_des_batch_identity;
    qcheck_chain_recovery;
    Alcotest.test_case "store: roll, resume, compact" `Quick
      test_store_roll_resume_compact;
    Alcotest.test_case "store: compacted to an empty segment" `Quick
      test_store_compacted_to_empty;
    Alcotest.test_case "store: single segment is a plain wal" `Quick
      test_store_bytes_match_wal;
    Alcotest.test_case "chain: peek and torn-tail fallback" `Quick
      test_chain_peek_and_torn_tail;
    Alcotest.test_case "chooser: coverage rule" `Quick test_coverage_rule;
    Alcotest.test_case "chooser: compacted store needs a covering checkpoint"
      `Quick test_compacted_store_needs_cover;
    Alcotest.test_case "chooser: assess on-disk artifacts" `Quick
      test_assess_prefers_chain_on_disk ]
