(* mmd_engine: run the incremental replanning engine against a churn
   delta log.

   The positional FILE is either an instance file (the initial world)
   or an engine snapshot from a previous run (--snapshot-out); the two
   are distinguished by content. Delta logs come in two flavors,
   also distinguished by content: the plain human-editable format and
   the CRC-framed WAL (--wal-out / Engine.Wal). WAL replays recover
   around corruption (quarantining bad records) and skip the records a
   resume already recovered.

   Three single-process modes share one pipeline — one log loader, one
   replay loop, one end-of-run report — over one engine signature
   (Engine.S): a plain controller, a replica group (--replicas) or a
   shard router (--shards). Only how each engine is built or recovered
   and its own summary lines differ. The flags each mode honours:

     every mode     --deltas --gen-deltas --seed --deltas-out --epoch
                    --batch --skip-final-replan --compare --certify
                    --domains --trace-out --metrics-out --stats
     single engine  --wal-out FILE --wal-dir --checkpoint-every
                    --snapshot-in --snapshot-out --snapshot-every
                    --plan-out --crash-after
     --replicas     --wal-out FILE --heartbeat-every --kill-primary-at
                    --hand-over-at --replica-transport --snapshot-out
                    --snapshot-every --plan-out --crash-after
     --shards       --wal-out DIR --shard-tags --split --rebalance-every
                    --rebalance-k --replicas --heartbeat-every

   Any other flag is rejected before the run starts, with an error
   naming the flag and the mode; so is --snapshot-in without --wal-dir
   unless --deltas is a WAL. The multi-process replica modes
   (--replica-listen / --replica-connect / --replica-supervise) have
   their own loops.

   --batch N applies deltas through the engine's apply_batch, N at a
   time. Batches never cross a boundary event (a periodic snapshot or
   checkpoint, a simulated crash, a primary kill or hand-over, a
   rebalance epoch), so every artifact and every replan lands at
   exactly the same applied-delta position whatever the batch size —
   plans are bit-identical across N.

   --wal-dir DIR replaces the monolithic --wal-out with a segmented
   store plus a checkpoint chain (DIR/chain.ckpt). Checkpoints are
   delta-encoded increments written every --checkpoint-every applied
   deltas; each checkpoint retires the WAL segments it covers, so the
   bytes a restart must read stay bounded no matter how long the run.

   Every resume — a positional snapshot, --snapshot-in over the input
   WAL, an existing --wal-dir store — goes through one recovery step:
   restore whichever of the chain and the snapshot covers the most of
   the WAL, or replay it in full when neither does (Engine.Recovery).

   Examples:
     mmd_engine instance.mmd --deltas churn.log
     mmd_engine instance.mmd --gen-deltas 5000 --seed 7 --deltas-out churn.log
     mmd_engine instance.mmd --deltas churn.log --epoch drift:0.05 --compare
     mmd_engine instance.mmd --deltas churn.wal --wal-out churn.wal \
       --snapshot-out state.eng --snapshot-every 500
     mmd_engine state.eng --deltas churn.wal     # resume after a crash
     mmd_engine instance.mmd --gen-deltas 20000 --batch 64 \
       --wal-dir state/ --checkpoint-every 512   # bounded-recovery run
     mmd_engine instance.mmd --wal-dir state/    # resume: chain + tail
*)

open Cmdliner
module C = Engine.Controller

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------- Multi-process replica modes ---------- *)

let parse_endpoint s =
  match Replica.Transport_socket.endpoint_of_string s with
  | Ok ep -> ep
  | Error msg -> failwith msg

let parse_endpoints s =
  List.map parse_endpoint
    (List.filter (fun x -> x <> "") (String.split_on_char ',' s))

(* Follower process: serve the socket until a primary says quit (or
   nobody talks to us for the idle timeout). The printed digest is
   what the supervisor greps to assert convergence. *)
let follower_serve_run ~policy ~listen ~replica_id ~idle_timeout inst =
  match
    Replica.Proc.serve ~idle_timeout_s:idle_timeout ~policy
      ~endpoint:(parse_endpoint listen) inst
  with
  | Replica.Proc.Quit s ->
      Format.printf "PROC-FOLLOWER %d term=%d acked=%d digest=%s@." replica_id
        s.Replica.Proc.fterm s.Replica.Proc.acked s.Replica.Proc.state_digest
  | Replica.Proc.Orphaned ->
      Format.printf "PROC-FOLLOWER %d orphaned@." replica_id;
      Format.print_flush ();
      exit 4

(* Primary process: apply + WAL-flush + ship every record;
   --replica-kill-at SIGKILLs this very process (optionally leaving a
   torn frame on every wire first), which is what the supervisor's
   recovery path exists to survive. *)
let primary_proc_run ~policy ~records ~endpoints ~wal_writer ~heartbeat_every
    ~kill_at ~kill_mid_frame inst =
  let peers = Replica.Proc.connect_peers endpoints in
  let ctrl = C.create ~policy inst in
  let history : (int, bool * string) Hashtbl.t = Hashtbl.create 1024 in
  let hb_every = max 1 (Option.value heartbeat_every ~default:8) in
  let term = 0 in
  let applied = ref 0 and last = ref 0 in
  let next_seq = ref 1 in
  (* Durability before shipping: the record reaches the (flushed) WAL
     before any byte of it hits a wire, so the shipped stream is
     always a prefix-of-WAL and recovery can re-ship the tail. *)
  let log_record d =
    match wal_writer with
    | Some w -> Engine.Wal.append_tee ~flush:true w d
    | None ->
        let seq = !next_seq in
        (seq, Engine.Wal.record_to_string ~seq d)
  in
  List.iter
    (fun (_, d) ->
      (match kill_at with
      | Some k when !applied = k ->
          if kill_mid_frame then begin
            (* The torn record is durable: it reaches the WAL before
               the half-frame hits the wire, so recovery must re-ship
               it to every survivor. *)
            let _, line = log_record d in
            Replica.Proc.write_torn_frame peers ~term ~line
          end;
          Format.print_flush ();
          Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ());
      let seq, line = log_record d in
      next_seq := seq + 1;
      ignore (C.apply ctrl d);
      Hashtbl.replace history seq (false, line);
      last := seq;
      Replica.Proc.ship peers ~term ~shock:false line;
      incr applied;
      if !applied mod hb_every = 0 then
        Replica.Proc.heartbeat peers ~term ~last_seq:!last ~tick:!applied)
    records;
  let converged = Replica.Proc.catch_up peers ~term ~history ~last_seq:!last in
  let mine = Replica.Proc.digest ctrl in
  let divergent =
    List.fold_left
      (fun n p ->
        match Replica.Proc.collect_digest p with
        | Some d when d = mine -> n
        | _ -> n + 1)
      0 peers
  in
  Replica.Proc.quit_peers peers;
  (match wal_writer with Some w -> Engine.Wal.close w | None -> ());
  Format.printf
    "PROC-PRIMARY applied=%d last_seq=%d followers=%d divergent=%d%s@."
    !applied !last (List.length peers) divergent
    (if converged then "" else " [NOT converged]");
  if divergent > 0 || not converged then begin
    Format.print_flush ();
    exit 5
  end

let rec waitpid_retry pid =
  try Unix.waitpid [] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Supervisor: spawn N follower processes + 1 primary process
   (re-execing this very binary), wait on the primary, and — when it
   died by signal (--replica-kill-at SIGKILLs it) — run the recovery
   coordinator over the durable WAL and assert every survivor
   converges bit-identically to the WAL replay. *)
let supervise_run ~policy ~file ~epoch ~n ~gen_deltas ~deltas_in ~seed
    ~wal_out ~heartbeat_every ~kill_at ~kill_mid_frame ~idle_timeout inst =
  if n < 1 then failwith "--replica-supervise: need at least 1 follower";
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mmd-proc-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o700
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let sock i = Filename.concat dir (Printf.sprintf "follower-%d.sock" i) in
  let wal =
    match wal_out with
    | Some w -> w
    | None -> Filename.concat dir "primary.wal"
  in
  let exe = Sys.executable_name in
  let ids = List.init n (fun i -> i + 1) in
  let spawn args =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let followers =
    List.map
      (fun i ->
        ( i,
          spawn
            [ file; "--replica-listen"; "unix:" ^ sock i; "--replica-id";
              string_of_int i; "--replica-idle-timeout";
              Printf.sprintf "%g" idle_timeout; "--epoch"; epoch ] ))
      ids
  in
  let primary_args =
    [ file; "--replica-connect";
      String.concat "," (List.map (fun i -> "unix:" ^ sock i) ids); "--epoch";
      epoch; "--wal-out"; wal; "--seed"; string_of_int seed ]
    @ (match gen_deltas with
      | Some g -> [ "--gen-deltas"; string_of_int g ]
      | None -> [])
    @ (match deltas_in with Some p -> [ "--deltas"; p ] | None -> [])
    @ (match heartbeat_every with
      | Some h -> [ "--heartbeat-every"; string_of_int h ]
      | None -> [])
    @ (match kill_at with
      | Some k -> [ "--replica-kill-at"; string_of_int k ]
      | None -> [])
    @ (if kill_mid_frame then [ "--replica-kill-mid-frame" ] else [])
  in
  let ppid = spawn primary_args in
  let _, pstatus = waitpid_retry ppid in
  let failed = ref 0 in
  (match pstatus with
  | Unix.WEXITED 0 -> Format.printf "PROC-SUPERVISOR primary exited cleanly@."
  | Unix.WSIGNALED s ->
      Format.printf "PROC-SUPERVISOR primary killed by signal %d; recovering@."
        s;
      let endpoints = List.map (fun i -> parse_endpoint ("unix:" ^ sock i)) ids in
      (match
         Replica.Proc.recover_and_verify ~policy ~endpoints ~wal_path:wal
           ~term:1 inst
       with
      | Ok r ->
          Format.printf
            "PROC-SUPERVISOR survivors=%d divergent=%d wal_records=%d \
             digest=%s@."
            r.Replica.Proc.survivors r.Replica.Proc.divergent
            r.Replica.Proc.wal_records r.Replica.Proc.reference_digest;
          if r.Replica.Proc.divergent > 0 then incr failed
      | Error msg ->
          Format.printf "PROC-SUPERVISOR recovery failed: %s@." msg;
          incr failed)
  | Unix.WEXITED c ->
      Format.printf "PROC-SUPERVISOR primary exited %d@." c;
      incr failed
  | Unix.WSTOPPED _ -> incr failed);
  List.iter
    (fun (i, pid) ->
      let _, st = waitpid_retry pid in
      match st with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c ->
          Format.printf "PROC-SUPERVISOR follower %d exited %d@." i c;
          incr failed
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          Format.printf "PROC-SUPERVISOR follower %d died on signal %d@." i s;
          incr failed)
    followers;
  List.iter (fun i -> try Sys.remove (sock i) with Sys_error _ -> ()) ids;
  (match wal_out with
  | None -> ( try Sys.remove wal with Sys_error _ -> ())
  | Some _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Format.printf "PROC-SUPERVISOR done: %d follower(s), %d failure(s)@." n
    !failed;
  if !failed > 0 then begin
    Format.print_flush ();
    exit 5
  end

(* ---------- Flag validation ---------- *)

type mode = Single | Replicated | Sharded | Follower | Proc_primary | Supervisor

let mode_name = function
  | Single -> "single-engine mode"
  | Replicated -> "replicated mode (--replicas)"
  | Sharded -> "sharded mode (--shards)"
  | Follower -> "replica-follower mode (--replica-listen)"
  | Proc_primary -> "replica-primary mode (--replica-connect)"
  | Supervisor -> "replica-supervisor mode (--replica-supervise)"

(* The one check before dispatch: every flag given on the command line
   is honoured by the chosen mode or rejected, naming the flag and the
   mode. [flags] lists each flag, whether it was given (a flag with a
   default counts as given when it differs from it) and the modes that
   honour it; [needs] lists flags that only mean something next to
   another one. *)
let check_flags mode ~flags ~needs =
  let reject fmt = Printf.ksprintf failwith fmt in
  List.iter
    (fun (flag, given, modes) ->
      if given && not (List.mem mode modes) then
        reject "%s is not supported in %s" flag (mode_name mode))
    flags;
  List.iter
    (fun (flag, given, other, present) ->
      if given && not present then
        reject "%s needs %s in %s" flag other (mode_name mode))
    needs

(* ---------- The log loader ---------- *)

(* An input delta log, parsed once: a CRC-framed WAL or a plain log. *)
type input_log =
  | Wal_log of Engine.Wal.recovery
  | Plain_log of Engine.Delta.t list

let read_log path =
  let text = read_all path in
  if Engine.Wal.is_wal text then
    match Engine.Wal.recover_string text with
    | Ok r -> Wal_log r
    | Error msg -> failwith msg
  else Plain_log (Engine.Delta.log_of_string text)

(* The replay stream as (seq, delta) pairs. Plain logs are numbered
   from [already] (the restored lifetime delta count) — continuation
   semantics for a snapshot-resumed run fed new deltas. Under --wal-dir
   the input log is the same log the crashed run consumed from seq 1,
   so [plain_from_start] numbers it from 1 and the recovered prefix is
   skipped like a WAL's. WAL records carry their own authoritative
   sequence numbers and records already recovered are skipped.
   [note] receives the quarantined count for the counters of whichever
   controller ends up replaying. Generated churn is drawn against
   [view], the engine's whole population. *)
let load_records ~input ~gen_deltas ~seed ~deltas_out ~plain_from_start
    ~already ~view ~note =
  let number ~from log = List.mapi (fun i d -> (from + i + 1, d)) log in
  let skip records =
    let fresh, skipped =
      List.partition (fun (seq, _) -> seq > already) records
    in
    if skipped <> [] then
      Format.printf
        "resume: skipping %d record(s) already recovered (up to seq %d)@."
        (List.length skipped) already;
    fresh
  in
  match (Lazy.force input, gen_deltas) with
  | Some (Plain_log log), _ ->
      if plain_from_start then skip (number ~from:0 log)
      else number ~from:already log
  | Some (Wal_log r), _ ->
      let n = List.length r.Engine.Wal.quarantined in
      if n > 0 then begin
        note n;
        Format.printf "WAL recovery: quarantined %d record(s)%s@." n
          (if r.Engine.Wal.torn_tail then " (including a torn tail)" else "");
        List.iteri
          (fun i (q : Engine.Wal.quarantined) ->
            if i < 10 then
              Format.printf "  line %d: %s@." q.Engine.Wal.line
                q.Engine.Wal.reason)
          r.Engine.Wal.quarantined;
        if n > 10 then Format.printf "  ... and %d more@." (n - 10)
      end;
      skip r.Engine.Wal.records
  | None, Some n ->
      let rng = Prelude.Rng.create seed in
      let log =
        Engine.Churn.generate ~rng view { Engine.Churn.default with deltas = n }
      in
      Option.iter
        (fun path ->
          Engine.Delta.write_log path log;
          Format.printf "wrote %d deltas to %s@." n path)
        deltas_out;
      number ~from:already log
  | None, None -> []

(* ---------- The replay loop ---------- *)

(* A boundary event: [At (n, f)] fires once, before any record past the
   [n]-th is applied, and is handed the next record's seq; [Every (k,
   f)] fires after every [k]-th applied record. *)
type event = At of int * (int -> unit) | Every of int * (unit -> unit)

(* Feed [records] to [f] in chunks of at most [batch], firing [events]
   at their positions. A chunk never crosses an event, so every event —
   a crash, a kill, a snapshot, a checkpoint, a rebalance — lands at
   exactly the applied-delta position of the one-record-at-a-time loop,
   and so does every replan the engine's epoch policy fires: plans are
   bit-identical at every batch size. *)
let iter_batches ~batch ~events records f =
  let room applied =
    List.fold_left
      (fun room -> function
        | At (n, _) when n > applied -> min room (n - applied)
        | At _ -> room
        | Every (k, _) -> min room (k - (applied mod k)))
      batch events
  in
  let rec take k acc rest =
    match rest with
    | r :: tl when k > 0 -> take (k - 1) (r :: acc) tl
    | _ -> (List.rev acc, rest)
  in
  let rec go applied = function
    | [] -> ()
    | (next, _) :: _ as records ->
        List.iter
          (function At (n, fire) when n = applied -> fire next | _ -> ())
          events;
        let chunk, rest = take (room applied) [] records in
        f chunk;
        let applied = applied + List.length chunk in
        List.iter
          (function Every (k, fire) when applied mod k = 0 -> fire () | _ -> ())
          events;
        go applied rest
  in
  go 0 records

(* What a mode wraps around its engine: its own boundary events, the
   serving controller when there is exactly one (snapshots, plan
   output and the scratch comparison read it), and its own summary
   lines. *)
type replay_mode = {
  engine : Engine.S.t;
  primary : (unit -> C.t) option;
  events : event list;
  finish : applied:int -> elapsed:float -> unit;
      (** end-of-run actions and summary lines, after the final replan *)
  compare : unit -> unit;  (** the --compare line *)
}

let print_applied ~applied ~elapsed =
  Format.printf "applied %d deltas in %.3fs wall (%.0f deltas/s)@." applied
    elapsed
    (if elapsed > 0. then float applied /. elapsed else 0.)

let print_plan ctrl =
  Format.printf "plan: %d streams transmitted, utility %.6g%s@."
    (List.length (Engine.Planner.admitted (C.planner ctrl)))
    (C.utility ctrl)
    (if C.degraded ctrl then " [degraded]" else "")

let compare_scratch ctrl =
  let scratch_util, scratch_evals = C.scratch (C.view ctrl) in
  let gap =
    if scratch_util > 0. then 100. *. (1. -. (C.utility ctrl /. scratch_util))
    else 0.
  in
  Format.printf
    "from-scratch eager solve: utility %.6g (engine gap %.2f%%), %d evals \
     for one solve@."
    scratch_util gap scratch_evals

(* The CLI certifies a controller with the dense LP where it fits (the
   Lagrangian path beyond), which the solver-free engine library cannot
   reach. The checker's verdict is what gets reported — the emitters
   only propose. *)
let certify_dense ctrl =
  let inst = Engine.View.materialize (C.view ctrl) in
  let achieved = C.utility ctrl in
  match Exact.Certificate.emit ~target:achieved inst with
  | Error msg -> Error (Printf.sprintf "none (%s)" msg)
  | Ok (cert, method_) -> (
      match Exact.Certificate.check inst cert with
      | Cert.Checker.Rejected msg ->
          Error (Printf.sprintf "REJECTED by checker (%s)" msg)
      | Cert.Checker.Certified { bound; repaired } ->
          let ratio = Engine.Certify.ratio_of ~achieved ~bound in
          Engine.Counters.note_certificate (C.counters ctrl) ~ratio;
          Ok
            ( { Engine.Certify.bound;
                achieved;
                ratio;
                repaired;
                iterations = 0 },
              Exact.Certificate.string_of_method method_ ))

(* A mode served by one controller at a time certifies with the dense
   LP, ends its summary with the plan line and compares against a
   from-scratch solve, all on the controller serving at that point. *)
let controller_mode (e : Engine.S.t) ~primary ~events ~summary =
  { engine = { e with certify = (fun () -> certify_dense (primary ())) };
    primary = Some primary;
    events;
    finish =
      (fun ~applied ~elapsed ->
        summary ~applied ~elapsed;
        print_plan (primary ()));
    compare = (fun () -> compare_scratch (primary ())) }

(* Load the log, replay it through the mode's engine, and report. Only
   the mode's construction, its events and its summary lines differ
   between a single controller, a replica group and a shard router. *)
let replay ~load ~batch ~crash_after ~skip_final ~compare ~certify ~plan_out
    ~snapshot_out ~snapshot_every ~stats ~metrics_out ~trace_out m =
  let e = m.engine in
  let already =
    match m.primary with Some p -> C.deltas_applied (p ()) | None -> 0
  in
  let records =
    load ~already ~view:(e.view ()) ~note:(fun n ->
        Option.iter
          (fun p -> Engine.Counters.note_quarantined ~n (C.counters (p ())))
          m.primary)
  in
  let crash =
    (* Simulated crash: no final replan, no snapshot, no cleanup — the
       recovery path has to cope. Every batch ends with its log
       flushed, so every applied delta survives the exit (see EXIT
       STATUS: 3); a checkpoint chain is deliberately NOT advanced,
       leaving a tail for recovery. *)
    Option.map
      (fun n ->
        At
          ( n,
            fun next ->
              Format.printf
                "simulated crash at delta boundary %d (next seq %d)@." n next;
              Format.print_flush ();
              exit 3 ))
      crash_after
  in
  let snapshots =
    match (snapshot_every, snapshot_out, m.primary) with
    | Some every, Some path, Some p ->
        [ Every (every, fun () -> Engine.Snapshot.write_file path (p ())) ]
    | _ -> []
  in
  let applied = ref 0 and last_seq = ref already in
  let t0 = Obs.Clock.now () in
  (try
     iter_batches ~batch
       ~events:(Option.to_list crash @ m.events @ snapshots)
       records
       (fun chunk ->
         e.apply_batch (List.map snd chunk);
         List.iter
           (fun (seq, _) ->
             incr applied;
             last_seq := seq)
           chunk)
   with Failure msg | Invalid_argument msg ->
     (* Partial output before dying: the operator can resume from the
        printed seq with a corrected log. *)
     Format.printf "aborted mid-log: %s@." msg;
     Format.printf "last applied: %d deltas this run (log seq %d)@." !applied
       !last_seq;
     Option.iter
       (fun p ->
         Format.printf
           "lifetime deltas: %d, epoch phase: %d since last replan@."
           (C.deltas_applied (p ()))
           (C.since_replan (p ())))
       m.primary;
     Format.printf "%a@." Engine.Counters.pp_report (e.report ());
     Format.print_flush ();
     failwith
       (Printf.sprintf "replay aborted after %d deltas (log seq %d): %s"
          !applied !last_seq msg));
  if not skip_final then e.replan ();
  m.finish ~applied:!applied ~elapsed:(Obs.Clock.elapsed_since t0);
  (if certify then
     match e.certify () with
     | Error verdict -> Format.printf "certificate: %s@." verdict
     | Ok (o, how) ->
         Format.printf
           "certificate: bound %.6g, achieved %.6g, ratio %.4f (%s%s)@."
           o.Engine.Certify.bound o.Engine.Certify.achieved
           o.Engine.Certify.ratio how
           (if o.Engine.Certify.repaired then ", repaired" else ""));
  Format.printf "%a@." Engine.Counters.pp_report (e.report ());
  if compare then m.compare ();
  (match (m.primary, plan_out) with
  | Some p, Some path ->
      Mmd.Io.write_assignment path (C.plan (p ()));
      Format.printf "plan -> %s@." path
  | _ -> ());
  (match (m.primary, snapshot_out) with
  | Some p, Some path ->
      Engine.Snapshot.write_file path (p ());
      Format.printf "snapshot -> %s@." path
  | _ -> ());
  e.close ();
  if stats then Format.printf "%s@." (Obs.Export.stats_table ());
  Option.iter
    (fun path ->
      Obs.Export.write_prometheus path;
      Format.printf "metrics -> %s@." path)
    metrics_out;
  Option.iter
    (fun path ->
      Obs.Trace.close ();
      Format.printf "trace -> %s (%d spans)@." path
        (Obs.Trace.spans_emitted ()))
    trace_out

(* ---------- Mode construction ---------- *)

(* --wal-out FILE continues the sequence from what the log already
   holds, so crash + resume keeps one coherent WAL. *)
let open_wal_out path =
  let next_seq =
    if Sys.file_exists path then
      match Engine.Wal.recover_file path with
      | Ok r -> r.Engine.Wal.last_seq + 1
      | Error _ -> 1
    else 1
  in
  Engine.Wal.append_file ~next_seq path

(* The one recovery step of a single engine: restore whichever of the
   checkpoint chain and the snapshot covers the most of the WAL records
   [first_seq..last_seq] (Engine.Recovery.select), or build from the
   instance when neither does and the WAL starts at seq 1; note the
   path taken. Returns the controller and the highest seq it covers. *)
let recover ~policy ~inst ?chain ?snapshot ~first_seq ~last_seq () =
  let { Engine.Recovery.choice; covers } =
    match
      Engine.Recovery.select ?chain_path:chain ?snapshot_path:snapshot
        ~first_seq ~last_seq ()
    with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  Format.printf "recovery: taking %s (covers seq %d)@."
    (Engine.Recovery.choice_to_string choice)
    covers;
  let ctrl, covered =
    match choice with
    | Engine.Recovery.Chain_tail -> (
        match
          Engine.Checkpoint.recover ~instance:(inst ()) ~path:(Option.get chain)
        with
        | Ok rc ->
            if rc.Engine.Checkpoint.torn then
              Format.printf "checkpoint chain: dropped a torn tail increment@.";
            Format.printf
              "restored checkpoint chain: %d increment(s) covering seq %d@."
              rc.Engine.Checkpoint.increments rc.Engine.Checkpoint.covered;
            (rc.Engine.Checkpoint.ctrl, rc.Engine.Checkpoint.covered)
        | Error msg -> failwith ("checkpoint chain recovery failed: " ^ msg))
    | Engine.Recovery.Snapshot_tail -> (
        match Engine.Snapshot.read_file_result (Option.get snapshot) with
        | Ok (ctrl, generation) ->
            Format.printf "restored snapshot%s: %d slots active, utility %.6g@."
              (if generation = Engine.Snapshot.Previous then
                 " (previous generation: the current one is damaged)"
               else "")
              (Engine.View.active_count (C.view ctrl))
              (C.utility ctrl);
            (ctrl, C.deltas_applied ctrl)
        | Error msg -> failwith msg)
    | Engine.Recovery.Full_replay -> (C.create ~policy (inst ()), 0)
  in
  (* A snapshot that fell back to its previous generation may stop
     short of a compacted WAL. *)
  if covered < first_seq - 1 then
    failwith
      (Printf.sprintf "restored state covers seq %d, the WAL starts at seq %d"
         covered first_seq);
  Engine.Recovery.note (C.counters ctrl) choice;
  (ctrl, covered)

(* Single engine: a controller from the instance, or — from a
   positional snapshot, from --snapshot-in over the input WAL, or from
   an existing --wal-dir store — through [recover]. A positional
   snapshot is the run's starting state: no WAL bounds it. The
   uncovered store tail is replayed before any new input record is
   loaded, so churn generation sees the recovered world. The engine
   logs first and applies second: a crash between the two re-applies
   on recovery instead of losing an applied record. *)
let single_mode ~policy ~file ~text ~snapshot_in ~input ~wal_out ~wal_dir
    ~checkpoint_every =
  let inst () = Mmd.Io.of_string text in
  let chain =
    Option.map (fun dir -> Filename.concat dir "chain.ckpt") wal_dir
  in
  let store =
    match wal_dir with
    | Some dir when Sys.file_exists dir ->
        Result.to_option (Engine.Wal_store.recover_dir dir)
    | _ -> None
  in
  (* A resume: the artifacts to choose from and the WAL's seq range. *)
  let resume =
    match (store, wal_dir) with
    | Some (r : Engine.Wal_store.recovery), _ ->
        Some (chain, snapshot_in, r.first_seq, r.last_seq)
    | None, Some _ -> None (* a fresh store *)
    | None, None when Engine.Snapshot.is_snapshot text ->
        Some (None, Some file, 1, max_int)
    | None, None when snapshot_in <> None -> (
        match Lazy.force input with
        | Some (Wal_log r) -> Some (None, snapshot_in, 1, r.Engine.Wal.last_seq)
        | _ -> Some (None, snapshot_in, 1, 0))
    | None, None -> None
  in
  let ctrl, covered =
    match resume with
    | Some (chain, snapshot, first_seq, last_seq) ->
        recover ~policy ~inst ?chain ?snapshot ~first_seq ~last_seq ()
    | None -> (C.create ~policy (inst ()), 0)
  in
  let store_ctx =
    Option.map
      (fun dir ->
        let tail =
          match store with
          | None -> []
          | Some r ->
              let n = List.length r.Engine.Wal_store.quarantined in
              if n > 0 then begin
                Engine.Counters.note_quarantined ~n (C.counters ctrl);
                Format.printf "segment store: quarantined %d record(s)%s@." n
                  (if r.Engine.Wal_store.torn_tail then
                     " (including a torn tail)"
                   else "")
              end;
              List.filter
                (fun (seq, _) -> seq > covered)
                r.Engine.Wal_store.records
        in
        let store = Engine.Wal_store.open_dir dir in
        let w = Engine.Checkpoint.create_writer ~path:(Option.get chain) ctrl in
        if tail <> [] then begin
          let t0 = Obs.Clock.now () in
          C.apply_batch ~on_applied:(Engine.Checkpoint.note w) ctrl
            (List.map snd tail);
          Format.printf "replayed %d tail record(s) in %.4fs@."
            (List.length tail)
            (Obs.Clock.elapsed_since t0)
        end;
        (store, w))
      wal_dir
  in
  let wal_writer = Option.map open_wal_out wal_out in
  let e = Engine.S.of_controller ctrl in
  let on_applied =
    Option.map (fun (_, w) -> Engine.Checkpoint.note w) store_ctx
  in
  (* One OS flush per batch; bytes on disk are identical to per-record
     appends. *)
  let log deltas =
    Option.iter
      (fun (store, _) -> Engine.Wal_store.append_batch store deltas)
      store_ctx;
    Option.iter
      (fun w ->
        List.iter
          (fun d -> ignore (Engine.Wal.append_tee ~flush:false w d))
          deltas;
        Engine.Wal.flush_writer w)
      wal_writer
  in
  let checkpoint (store, w) =
    Engine.Checkpoint.checkpoint w ctrl;
    Engine.Wal_store.compact store ~covered:(Engine.Checkpoint.covered w)
  in
  controller_mode
    { e with
      apply_batch =
        (fun deltas ->
          log deltas;
          C.apply_batch ?on_applied ctrl deltas);
      close =
        (fun () ->
          Option.iter Engine.Wal.close wal_writer;
          Option.iter
            (fun (store, w) ->
              Engine.Checkpoint.close_writer w;
              Engine.Wal_store.close store)
            store_ctx) }
    ~primary:(fun () -> ctrl)
    ~events:
      (Option.to_list
         (Option.map
            (fun ctx ->
              Every (checkpoint_every, fun () -> ignore (checkpoint ctx)))
            store_ctx))
    ~summary:(fun ~applied ~elapsed ->
      Option.iter
        (fun ((store, w) as ctx) ->
          (* Final increment captures the post-replan plan, so a clean
             resume has a zero-record tail; compaction then retires
             every sealed segment. *)
          let deleted = checkpoint ctx in
          Format.printf
            "checkpoint chain: %d increment(s), covers seq %d; store: %d \
             segment(s) on disk%s@."
            (Engine.Checkpoint.increments w)
            (Engine.Checkpoint.covered w)
            (List.length
               (Engine.Wal_store.segments (Engine.Wal_store.dir store)))
            (if deleted > 0 then Printf.sprintf " (%d compacted away)" deleted
             else ""))
        store_ctx;
      print_applied ~applied ~elapsed)

(* Replicated: the primary applies and WAL-ships every delta to the
   followers; --kill-primary-at exercises heartbeat detection and
   promotion mid-log, --hand-over-at a planned lease hand-over. *)
let replicated_mode ~policy ~replicas ~heartbeat_every ~transport ~wal_out
    ~kill_primary_at ~hand_over_at inst =
  let config = Replica.Group.config_of_heartbeat heartbeat_every in
  let mk_link =
    match transport with
    | "queue" -> fun _ -> Replica.Transport.queue_link ()
    | "socket" -> fun _ -> Replica.Transport_socket.loopback ()
    | other -> failwith (Printf.sprintf "unknown replica transport %S" other)
  in
  let wal_writer = Option.map open_wal_out wal_out in
  let g =
    Replica.Group.create ~policy ~config ~mk_link ?wal:wal_writer ~replicas inst
  in
  let e = Replica.Chaos.engine g in
  let primary () = Replica.Group.primary g in
  let kill n =
    At
      ( n,
        fun _ ->
          if Replica.Group.primary_alive g then begin
            Format.printf "killing primary (replica %d) at delta boundary %d@."
              (Replica.Group.primary_id g)
              n;
            Replica.Group.kill_primary g
          end )
  in
  let hand_over n =
    At
      ( n,
        fun _ ->
          match Replica.Group.hand_over g with
          | Ok id ->
              Format.printf
                "hand-over at boundary %d: new primary replica %d, lost 0 \
                 deltas@."
                n id
          | Error msg ->
              Format.printf "hand-over at boundary %d refused: %s@." n msg )
  in
  controller_mode
    { e with
      close =
        (fun () ->
          e.close ();
          Option.iter Engine.Wal.close wal_writer) }
    ~primary
    ~events:
      (Option.to_list (Option.map kill kill_primary_at)
      @ Option.to_list (Option.map hand_over hand_over_at))
    ~summary:(fun ~applied ~elapsed ->
      let converged = Replica.Group.quiesce g in
      print_applied ~applied ~elapsed;
      Format.printf
        "replication: %d follower(s), term %d, %d failover(s), primary \
         replica %d%s@."
        (Replica.Group.replicas g) (Replica.Group.term g)
        (Replica.Group.failovers g)
        (Replica.Group.primary_id g)
        (if converged then "" else " [followers NOT converged]");
      if Replica.Group.failovers g > 0 then
        Format.printf "time to promote: %.6fs@."
          (Replica.Group.last_promote_seconds g);
      if Replica.Group.handovers g > 0 then
        Format.printf "planned hand-overs: %d@." (Replica.Group.handovers g);
      List.iter
        (fun id ->
          Format.printf "follower %d: acked seq %d (lag %d)@." id
            (Option.value ~default:0 (Replica.Group.acked g id))
            (Option.value ~default:0 (Replica.Group.lag g id)))
        (Replica.Group.live_followers g))

(* Sharded: every delta is routed through a Shard.Router over N full
   engine stacks. --wal-out names a DIRECTORY holding shard-<i>.wal
   (each replays standalone into a controller over that shard's
   initial sub-world). *)
let sharded_mode ~policy ~seed ~shards ~shard_tags ~split ~wal_out ~replicas
    ~heartbeat_every ~rebalance_every ~rebalance_k inst =
  let split =
    match split with
    | "even" -> Shard.Router.Even
    | "demand" -> Shard.Router.Demand
    | other -> failwith (Printf.sprintf "unknown budget split %S" other)
  in
  let tags =
    match shard_tags with
    | Some spec ->
        let tags = Array.of_list (String.split_on_char ',' spec) in
        if Array.length tags <> shards then
          failwith
            (Printf.sprintf "--shard-tags names %d racks for %d shards"
               (Array.length tags) shards);
        tags
    | None -> Array.init shards (fun i -> Printf.sprintf "rack%d" (i mod 2))
  in
  let map = Shard.Shard_map.create ~seed ~tags () in
  let router =
    Shard.Router.create ~policy ~split ?wal_dir:wal_out ?replicas
      ?heartbeat_every ~map inst
  in
  let moves = ref 0 in
  let rebalance () =
    moves := !moves + Shard.Router.rebalance router ~k:rebalance_k;
    if split = Shard.Router.Demand then Shard.Router.resplit_budgets router
  in
  { engine = Shard.Router.engine router;
    primary = None;
    events =
      Option.to_list
        (Option.map (fun every -> Every (every, rebalance)) rebalance_every);
    finish =
      (fun ~applied ~elapsed ->
        Format.printf
          "applied %d deltas across %d shards in %.3fs wall (%.0f deltas/s \
           aggregate)@."
          applied shards elapsed
          (if elapsed > 0. then float applied /. elapsed else 0.);
        Format.printf "shard populations:";
        Array.iteri
          (fun i c ->
            Format.printf " %d:%d[%s]" i c (Shard.Shard_map.tag map i))
          (Shard.Router.counts router);
        Format.printf "@.";
        if !moves > 0 then Format.printf "rebalance moves: %d@." !moves;
        if Shard.Router.replicated router then begin
          let converged = Shard.Router.quiesce_replicas router in
          Format.printf
            "replication: %d replica(s) per shard, %d failover(s)%s@."
            (Option.value ~default:0 replicas)
            (Shard.Router.failovers router)
            (if converged then "" else " [followers NOT converged]")
        end;
        Format.printf "sharded utility: %.6g@." (Shard.Router.utility router));
    compare =
      (fun () ->
        let global, evals = Shard.Router.global_scratch router in
        let loss =
          if global > 0. then
            100. *. (1. -. (Shard.Router.utility router /. global))
          else 0.
        in
        Format.printf
          "single global solve: utility %.6g (cross-shard loss %.2f%%), %d \
           evals@."
          global loss evals) }

let engine_run file deltas_in gen_deltas seed deltas_out epoch skip_final
    compare_scratch snapshot_in snapshot_out snapshot_every plan_out domains
    wal_out crash_after trace_out metrics_out stats shards shard_tags split
    rebalance_every rebalance_k replicas heartbeat_every kill_primary_at
    hand_over_at replica_transport replica_listen replica_connect
    replica_supervise replica_id replica_idle_timeout replica_kill_at
    replica_kill_mid_frame batch wal_dir checkpoint_every certify =
  match
    let mode =
      match (shards, replica_listen, replica_connect, replica_supervise) with
      | Some _, _, _, _ -> Sharded
      | None, Some _, _, _ -> Follower
      | None, None, Some _, _ -> Proc_primary
      | None, None, None, Some _ -> Supervisor
      | None, None, None, None -> if replicas = None then Single else Replicated
    in
    let local = [ Single; Replicated; Sharded ] in
    let feeds = Proc_primary :: Supervisor :: local in
    let controller = [ Single; Replicated ] in
    let procs = [ Proc_primary; Supervisor ] in
    (* Parsed once, by whichever of the flag check, the recovery step
       and the loader needs it first. *)
    let input = lazy (Option.map read_log deltas_in) in
    (* --snapshot-in restores over the WAL it comes with. A plain log
       carries no sequence numbers, so a snapshot-resumed replay would
       apply the deltas the snapshot covers a second time; generated
       churn has no history at all. *)
    let snapshot_over_log = snapshot_in <> None && wal_dir = None in
    let deltas_are_wal () =
      match Lazy.force input with Some (Wal_log _) -> true | _ -> false
    in
    check_flags mode
      ~flags:
        [ ("--deltas", deltas_in <> None, feeds);
          ("--gen-deltas", gen_deltas <> None, feeds);
          ("--deltas-out", deltas_out <> None, Proc_primary :: local);
          ("--wal-out", wal_out <> None, feeds);
          ("--skip-final-replan", skip_final, local);
          ("--compare", compare_scratch, local);
          ("--certify", certify, local);
          ("--batch", batch <> 1, local);
          ("--trace-out", trace_out <> None, local);
          ("--metrics-out", metrics_out <> None, local);
          ("--stats", stats, local);
          ("--wal-dir", wal_dir <> None, [ Single ]);
          ("--checkpoint-every", checkpoint_every <> 512, [ Single ]);
          ("--snapshot-in", snapshot_in <> None, [ Single ]);
          ("--snapshot-out", snapshot_out <> None, controller);
          ("--snapshot-every", snapshot_every <> None, controller);
          ("--plan-out", plan_out <> None, controller);
          ("--crash-after", crash_after <> None, controller);
          ("--shard-tags", shard_tags <> None, [ Sharded ]);
          ("--split", split <> "even", [ Sharded ]);
          ("--rebalance-every", rebalance_every <> None, [ Sharded ]);
          ("--rebalance-k", rebalance_k <> 8, [ Sharded ]);
          ("--replicas", replicas <> None, [ Replicated; Sharded ]);
          ( "--heartbeat-every",
            heartbeat_every <> None,
            Replicated :: Sharded :: procs );
          ("--kill-primary-at", kill_primary_at <> None, [ Replicated ]);
          ("--hand-over-at", hand_over_at <> None, [ Replicated ]);
          ("--replica-transport", replica_transport <> "queue", [ Replicated ]);
          ("--replica-listen", replica_listen <> None, [ Follower ]);
          ("--replica-connect", replica_connect <> None, [ Proc_primary ]);
          ("--replica-supervise", replica_supervise <> None, [ Supervisor ]);
          ("--replica-id", replica_id <> 0, [ Follower ]);
          ( "--replica-idle-timeout",
            replica_idle_timeout <> 30.,
            [ Follower; Supervisor ] );
          ("--replica-kill-at", replica_kill_at <> None, procs);
          ("--replica-kill-mid-frame", replica_kill_mid_frame, procs) ]
      ~needs:
        [ ( "--checkpoint-every", checkpoint_every <> 512,
            "--wal-dir", wal_dir <> None );
          ( "--snapshot-every", snapshot_every <> None,
            "--snapshot-out", snapshot_out <> None );
          ( "--snapshot-in", snapshot_over_log, "--deltas to be a WAL",
            (not snapshot_over_log) || deltas_are_wal () );
          ( "--deltas-out", deltas_out <> None,
            "--gen-deltas", gen_deltas <> None && deltas_in = None );
          ( "--heartbeat-every", heartbeat_every <> None,
            "--replicas", mode <> Sharded || replicas <> None ) ];
    if wal_out <> None && wal_dir <> None then
      failwith "--wal-out and --wal-dir are mutually exclusive";
    if batch < 1 then failwith "--batch: need at least 1";
    if checkpoint_every < 1 then failwith "--checkpoint-every: need at least 1";
    let at_least_1 flag = function
      | Some n when n < 1 ->
          failwith (Printf.sprintf "%s %d: need at least 1" flag n)
      | _ -> ()
    in
    at_least_1 "--shards" shards;
    if mode = Replicated then at_least_1 "--replicas" replicas;
    let text = read_all file in
    if Engine.Snapshot.is_snapshot text && (mode <> Single || wal_dir <> None)
    then
      failwith
        (match mode with
        | Single ->
            "--wal-dir starts from an instance; state comes back through the \
             checkpoint chain and the segment store"
        | Replicated ->
            "--replicas starts from an instance (replication rebuilds \
             follower state by shipping, not snapshots)"
        | Sharded ->
            "sharded mode starts from an instance; recovery goes through the \
             per-shard WALs, not a snapshot"
        | Follower -> "--replica-listen starts from an instance"
        | Proc_primary -> "--replica-connect starts from an instance"
        | Supervisor -> "--replica-supervise starts from an instance");
    Prelude.Pool.set_num_domains domains;
    Option.iter Obs.Trace.set_output trace_out;
    let policy =
      match C.policy_of_string epoch with Ok p -> p | Error msg -> failwith msg
    in
    let load = load_records ~input ~gen_deltas ~seed ~deltas_out in
    let replay =
      replay
        ~load:(load ~plain_from_start:(wal_dir <> None))
        ~batch ~crash_after ~skip_final ~compare:compare_scratch ~certify
        ~plan_out ~snapshot_out ~snapshot_every ~stats ~metrics_out ~trace_out
    in
    let inst () = Mmd.Io.of_string text in
    match mode with
    | Follower ->
        follower_serve_run ~policy ~listen:(Option.get replica_listen)
          ~replica_id ~idle_timeout:replica_idle_timeout (inst ())
    | Proc_primary ->
        let inst = inst () in
        primary_proc_run ~policy
          ~records:
            (load ~plain_from_start:false ~already:0
               ~view:(Engine.View.of_instance inst) ~note:ignore)
          ~endpoints:(parse_endpoints (Option.get replica_connect))
          ~wal_writer:(Option.map open_wal_out wal_out)
          ~heartbeat_every ~kill_at:replica_kill_at
          ~kill_mid_frame:replica_kill_mid_frame inst
    | Supervisor ->
        supervise_run ~policy ~file ~epoch ~n:(Option.get replica_supervise)
          ~gen_deltas ~deltas_in ~seed ~wal_out ~heartbeat_every
          ~kill_at:replica_kill_at ~kill_mid_frame:replica_kill_mid_frame
          ~idle_timeout:replica_idle_timeout (inst ())
    | Single ->
        replay
          (single_mode ~policy ~file ~text ~snapshot_in ~input ~wal_out
             ~wal_dir ~checkpoint_every)
    | Replicated ->
        replay
          (replicated_mode ~policy ~replicas:(Option.get replicas)
             ~heartbeat_every ~transport:replica_transport ~wal_out
             ~kill_primary_at ~hand_over_at (inst ()))
    | Sharded ->
        replay
          (sharded_mode ~policy ~seed ~shards:(Option.get shards) ~shard_tags
             ~split ~wal_out ~replicas ~heartbeat_every ~rebalance_every
             ~rebalance_k (inst ()))
  with
  | () -> Ok ()
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
      Error (`Msg msg)

let file =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"FILE" ~doc:"Instance file or engine snapshot.")

let deltas_in =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "d"; "deltas" ] ~docv:"LOG"
        ~doc:
          "Delta log to replay: plain text or WAL (detected by content). \
           WAL replays recover around corrupted records and skip records \
           a restored snapshot already covers.")

let gen_deltas =
  Arg.(
    value
    & opt (some int) None
    & info [ "gen-deltas" ] ~docv:"N"
        ~doc:
          "Generate a synthetic Zipf churn log of $(docv) deltas and replay \
           it (ignored when $(b,--deltas) is given).")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Churn seed.")

let deltas_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "deltas-out" ] ~docv:"FILE"
        ~doc:"Write the generated churn log here (plain format).")

let epoch =
  Arg.(
    value & opt string "every:64"
    & info [ "epoch" ] ~docv:"POLICY"
        ~doc:"Replan policy: $(b,every:N), $(b,drift:X) or $(b,manual).")

let skip_final =
  Arg.(
    value & flag
    & info [ "skip-final-replan" ]
        ~doc:"Do not force a replan after the last delta.")

let compare_scratch =
  Arg.(
    value & flag
    & info [ "compare" ]
        ~doc:
          "Also solve the final state from scratch (eager greedy) and print \
           the utility gap and per-solve evaluation cost.")

let snapshot_in =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-in" ] ~docv:"FILE"
        ~doc:
          "With an instance FILE and a WAL $(b,--deltas): restore $(docv) \
           and replay the WAL records past its coverage, or replay the \
           whole WAL when $(docv) is missing, unreadable or ahead of the \
           WAL; under $(b,--wal-dir) the checkpoint chain wins when it \
           covers more. The path taken is counted in \
           $(b,engine_recovery_path_total). Without $(b,--wal-dir), a \
           plain or missing $(b,--deltas) is rejected: a plain log has no \
           sequence numbers to skip the covered deltas by.")

let snapshot_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-out" ] ~docv:"FILE"
        ~doc:
          "Write the engine state for a later resume (atomic tmp+rename; \
           the previous generation is kept as $(docv).prev).")

let snapshot_every =
  Arg.(
    value
    & opt (some int) None
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "With $(b,--snapshot-out): also checkpoint every $(docv) applied \
           deltas, so a crash loses at most $(docv) deltas of work beyond \
           the WAL.")

let plan_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan-out" ] ~docv:"FILE" ~doc:"Write the final plan.")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Number of OCaml domains for the parallel planner stages \
           (default: $(b,VDMC_DOMAINS), else the machine's recommended \
           count minus one). $(b,1) forces the exact sequential path; \
           plans are bit-identical at every setting.")

let wal_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal-out" ] ~docv:"FILE"
        ~doc:
          "Append every applied delta to this CRC-framed write-ahead log \
           (flushed per batch; sequence numbers continue across resumes).")

let crash_after =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-after" ] ~docv:"N"
        ~doc:
          "Simulate a crash: exit(3) at the delta boundary after $(docv) \
           applied deltas — no final replan, no snapshot, no cleanup. For \
           exercising the recovery path.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write tracing spans (replans, recoveries, WAL and snapshot \
           I/O, planner extends) to $(docv) as JSON lines, one span per \
           line, with parent ids that nest across pool tasks.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metric registry (counters, gauges, latency \
           histograms) to $(docv) in Prometheus text format at the end \
           of the run.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print a human-readable table of every metric — counts, mean, \
           p50/p90/p99/max for histograms — after the run.")

let shards =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Run $(docv) independent engine shards behind a router (each a \
           full controller + counters stack; joins go to the least-loaded \
           shard, budgets are split across shards). $(b,--wal-out) then \
           names a directory of per-shard WALs. $(b,--shards 1) is \
           bit-identical to the unsharded engine.")

let shard_tags =
  Arg.(
    value
    & opt (some string) None
    & info [ "shard-tags" ] ~docv:"TAGS"
        ~doc:
          "Comma-separated rack tag per shard (default: alternate \
           $(b,rack0),$(b,rack1)); the placement interleave spreads \
           consecutive users across distinct racks.")

let split =
  Arg.(
    value & opt string "even"
    & info [ "split" ] ~docv:"KIND"
        ~doc:
          "Per-shard budget split: $(b,even) ($(i,B/N)) or $(b,demand) \
           (proportional to observed per-shard demand).")

let rebalance_every =
  Arg.(
    value
    & opt (some int) None
    & info [ "rebalance-every" ] ~docv:"N"
        ~doc:
          "With $(b,--shards): every $(docv) applied deltas, move at most \
           $(b,--rebalance-k) users from over- to under-populated shards \
           (as ordinary leave/join pairs).")

let rebalance_k =
  Arg.(
    value & opt int 8
    & info [ "rebalance-k" ] ~docv:"K"
        ~doc:"Per-epoch cap on rebalance moves (default 8).")

let replicas =
  Arg.(
    value
    & opt (some int) None
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Run a replicated control plane: the primary controller WAL-ships \
           every applied record to $(docv) follower controllers, which stay \
           bit-identical at every acked sequence number. With $(b,--shards), \
           each shard gets its own replica group. Requires an instance FILE \
           (followers rebuild by shipping, not snapshots).")

let heartbeat_every =
  Arg.(
    value
    & opt (some int) None
    & info [ "heartbeat-every" ] ~docv:"TICKS"
        ~doc:
          "With $(b,--replicas): logical ticks (applied records + idle \
           ticks) between primary heartbeats (default 8). Followers drain \
           shipped frames at heartbeat boundaries; the failure-detection \
           timeout scales to at least 3$(b,x) this.")

let kill_primary_at =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-primary-at" ] ~docv:"N"
        ~doc:
          "With $(b,--replicas) (unsharded): kill the primary cold at delta \
           boundary $(docv). The heartbeat failure detector then promotes \
           the most-caught-up follower — which finishes replaying its \
           buffered tail — and the run continues on the new primary with \
           zero divergence.")

let hand_over_at =
  Arg.(
    value
    & opt (some int) None
    & info [ "hand-over-at" ] ~docv:"N"
        ~doc:
          "With $(b,--replicas) (unsharded): planned lease-based failover at \
           delta boundary $(docv) — the primary grants a lease to the \
           most-caught-up follower, drains its tail, and flips roles. Zero \
           deltas are lost and the run continues on the new primary with \
           zero divergence; the demoted primary stays in the group as a \
           follower.")

let replica_transport =
  Arg.(
    value & opt string "queue"
    & info [ "replica-transport" ] ~docv:"KIND"
        ~doc:
          "With $(b,--replicas): the frame transport between primary and \
           followers — $(b,queue) (in-process FIFO) or $(b,socket) (a real \
           loopback socket pair per follower, length-prefixed CRC-framed \
           wire format). Final state is bit-identical across both.")

let replica_listen =
  Arg.(
    value
    & opt (some string) None
    & info [ "replica-listen" ] ~docv:"ADDR"
        ~doc:
          "Run this process as one follower of a multi-process replica set: \
           listen on $(docv) ($(b,unix:PATH) or $(b,HOST:PORT)), apply \
           frames shipped by a primary, and exit when told to quit \
           (printing the final state digest) or when orphaned past \
           $(b,--replica-idle-timeout) (exit 4).")

let replica_connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "replica-connect" ] ~docv:"ADDRS"
        ~doc:
          "Run this process as the primary of a multi-process replica set: \
           dial the comma-separated follower $(docv), then apply + WAL-ship \
           every record over the sockets. Exits 5 if any follower's final \
           digest diverges.")

let replica_supervise =
  Arg.(
    value
    & opt (some int) None
    & info [ "replica-supervise" ] ~docv:"N"
        ~doc:
          "Spawn a replica set of $(docv) follower processes plus one \
           primary process (re-executing this binary), supervise them, and \
           — if the primary dies by signal ($(b,--replica-kill-at)) — \
           recover its durable WAL and re-ship the tail so every survivor \
           converges. Exits 5 on any divergence or unclean follower exit.")

let replica_id =
  Arg.(
    value & opt int 0
    & info [ "replica-id" ] ~docv:"ID"
        ~doc:
          "With $(b,--replica-listen): this follower's id, echoed in its \
           report line.")

let replica_idle_timeout =
  Arg.(
    value & opt float 30.
    & info [ "replica-idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--replica-listen): exit 4 when no primary connects or \
           speaks for $(docv) seconds (default 30).")

let replica_kill_at =
  Arg.(
    value
    & opt (some int) None
    & info [ "replica-kill-at" ] ~docv:"N"
        ~doc:
          "With $(b,--replica-connect) (directly or via \
           $(b,--replica-supervise)): the primary process SIGKILLs itself \
           at delta boundary $(docv) — a real crash, not a simulation.")

let replica_kill_mid_frame =
  Arg.(
    value & flag
    & info [ "replica-kill-mid-frame" ]
        ~doc:
          "With $(b,--replica-kill-at): first append the next record to the \
           WAL and write exactly half of its encoded frame to every \
           follower, then die — leaving a torn frame on every wire that \
           recovery must re-ship.")

let batch =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Apply deltas $(docv) at a time through the batched entry point \
           (Controller.apply_batch): one counter flush, one tracing span \
           and one WAL OS-flush per batch instead of per record. Batches \
           never cross a snapshot, checkpoint, crash, kill or rebalance \
           boundary, so plans and artifacts are bit-identical to \
           $(b,--batch 1) at every $(docv).")

let wal_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal-dir" ] ~docv:"DIR"
        ~doc:
          "Durable state as a segmented WAL plus a checkpoint chain \
           ($(docv)/chain.ckpt) of delta-encoded increments. Each \
           checkpoint retires the sealed segments it covers, bounding \
           recovery I/O. On startup the chain (or a $(b,--snapshot-in) \
           covering more of the store) is restored — a store that starts \
           at seq 1 with neither is replayed in full — and the store's \
           uncovered tail is replayed before new input records. Mutually \
           exclusive with $(b,--wal-out); unsupported with $(b,--shards) \
           and $(b,--replicas).")

let checkpoint_every =
  Arg.(
    value & opt int 512
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With $(b,--wal-dir): write a checkpoint increment and compact \
           covered segments every $(docv) applied deltas (default 512).")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "After the final replan, emit an optimality certificate (dense LP \
           duals on small worlds, the tableau-free Lagrangian emitter at \
           scale), re-verify it with the independent checker, and print \
           $(b,bound)/$(b,achieved)/$(b,ratio) — the achieved utility is \
           provably within $(b,ratio) of OPT. With $(b,--shards), each \
           shard certifies its sub-world and the checker composes and \
           re-verifies one global bound against the true budgets. The \
           verified ratio is exported as the \
           $(b,engine_certified_opt_ratio) gauge.")

let cmd =
  let doc = "replay a churn delta log through the replanning engine" in
  let man =
    [ `S Manpage.s_exit_status;
      `P
        "$(b,0) on success; $(b,3) when $(b,--crash-after) fired its \
         simulated crash (the WAL is flushed first, so every applied delta \
         is recoverable); $(b,4) when a $(b,--replica-listen) follower was \
         orphaned past its idle timeout; $(b,5) when a multi-process \
         replica set diverged or a supervised process exited uncleanly; \
         Cmdliner's usual codes otherwise.";
      `P
        "A flag the chosen mode does not honour is rejected before the \
         run starts, with Cmdliner's error code and one line naming the \
         flag and the mode, such as 'mmd_engine: --crash-after is not \
         supported in sharded mode (--shards)' or 'mmd_engine: \
         --checkpoint-every needs --wal-dir in single-engine mode'." ]
  in
  Cmd.v (Cmd.info "mmd_engine" ~doc ~man)
    Term.(
      term_result
        (const engine_run $ file $ deltas_in $ gen_deltas $ seed $ deltas_out
       $ epoch $ skip_final $ compare_scratch $ snapshot_in $ snapshot_out
       $ snapshot_every $ plan_out $ domains $ wal_out $ crash_after
       $ trace_out $ metrics_out $ stats $ shards $ shard_tags $ split
       $ rebalance_every $ rebalance_k $ replicas $ heartbeat_every
       $ kill_primary_at $ hand_over_at $ replica_transport $ replica_listen
       $ replica_connect $ replica_supervise $ replica_id
       $ replica_idle_timeout $ replica_kill_at $ replica_kill_mid_frame
       $ batch $ wal_dir $ checkpoint_every $ certify))

let () = exit (Cmd.eval cmd)
