(* The mmd_engine command line, end to end: the output of every CI
   smoke invocation is pinned byte for byte (wall-clock figures
   masked), and every flag a mode does not honour is rejected with an
   error naming the flag and the mode instead of being dropped. *)

open Helpers

(* dune runtest runs from _build/default/test; the suite binary can
   also be run from the workspace root. *)
let bin_dir =
  List.find
    (fun d -> Sys.file_exists (Filename.concat d "mmd_engine.exe"))
    [ "../bin"; "_build/default/bin" ]

let cli_dir = List.find Sys.file_exists [ "cli"; "test/cli" ]

let read_lines ic =
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  List.rev !lines

let test_pinned_output () =
  let cmd =
    Filename.quote_command "sh"
      [ Filename.concat cli_dir "run.sh"; bin_dir ]
  in
  let ic = Unix.open_process_in cmd in
  let actual = read_lines ic in
  check_bool "pinning script ran" true
    (Unix.close_process_in ic = Unix.WEXITED 0);
  let ic = open_in (Filename.concat cli_dir "expected.txt") in
  let expected = read_lines ic in
  close_in ic;
  let rec first_diff i = function
    | e :: es, a :: as_ when e = a -> first_diff (i + 1) (es, as_)
    | [], [] -> ()
    | e, a ->
        let show = function x :: _ -> x | [] -> "<end of output>" in
        Alcotest.failf "line %d differs:\n  expected: %s\n  actual:   %s" i
          (show e) (show a)
  in
  first_diff 1 (expected, actual)

(* Runs inside [dir], so relative artifact paths land there. *)
let run_engine ~dir args =
  let exe = Filename.concat (Sys.getcwd ()) bin_dir in
  let exe = Filename.concat exe "mmd_engine.exe" in
  let cmd =
    Printf.sprintf "cd %s && %s 2>&1" (Filename.quote dir)
      (Filename.quote_command exe args)
  in
  let ic = Unix.open_process_in cmd in
  let out = String.concat "\n" (read_lines ic) in
  (Unix.close_process_in ic, out)

let in_scratch f =
  let dir = Filename.temp_file "cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Mmd.Io.write_file
    (Filename.concat dir "inst.mmd")
    (random_mmd ~seed:3 ~num_streams:20 ~num_users:12 ~m:2 ~mc:1 ~skew:1.0);
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let rejected args ~flag ~mode () =
  in_scratch (fun dir ->
      let status, out =
        run_engine ~dir ("inst.mmd" :: "--gen-deltas" :: "100" :: args)
      in
      check_bool "exits with an error" true
        (match status with Unix.WEXITED c -> c <> 0 && c <> 3 | _ -> false);
      let msg = Printf.sprintf "%s is not supported in %s" flag mode in
      if not (contains out msg) then
        Alcotest.failf "expected %S in:\n%s" msg out)

let sharded = "sharded mode (--shards)"
let single = "single-engine mode"

(* --trace-out / --metrics-out / --stats are process-global: the
   sharded engine honours them like every other mode. *)
let test_sharded_exporters () =
  in_scratch (fun dir ->
      let status, out =
        run_engine ~dir
          [ "inst.mmd"; "--gen-deltas"; "200"; "--shards"; "2"; "--trace-out";
            "t.jsonl"; "--metrics-out"; "m.prom"; "--stats" ]
      in
      let size f = (Unix.stat (Filename.concat dir f)).Unix.st_size in
      check_bool "clean exit" true (status = Unix.WEXITED 0);
      check_bool "trace written" true (size "t.jsonl" > 0);
      check_bool "metrics written" true (size "m.prom" > 0);
      check_bool "trace reported" true (contains out "trace -> ");
      check_bool "stats table printed" true
        (contains out "engine_deltas_total"))

(* A plain log has no sequence numbers to skip the snapshot's covered
   prefix by, so --snapshot-in over one is refused up front instead of
   applying covered deltas twice. *)
let test_snapshot_in_needs_wal () =
  in_scratch (fun dir ->
      let status, _ =
        run_engine ~dir
          [ "inst.mmd"; "--gen-deltas"; "100"; "--seed"; "5"; "--deltas-out";
            "s.log"; "--snapshot-out"; "s.eng" ]
      in
      check_bool "snapshot written" true (status = Unix.WEXITED 0);
      let status, out =
        run_engine ~dir
          [ "inst.mmd"; "--deltas"; "s.log"; "--snapshot-in"; "s.eng" ]
      in
      check_bool "exits with an error" true
        (match status with Unix.WEXITED c -> c <> 0 && c <> 3 | _ -> false);
      let msg = "--snapshot-in needs --deltas to be a WAL in " ^ single in
      if not (contains out msg) then
        Alcotest.failf "expected %S in:\n%s" msg out)

let suite =
  [ Alcotest.test_case "CI invocations print the pinned output" `Quick
      test_pinned_output;
    Alcotest.test_case "sharded mode honours the exporters" `Quick
      test_sharded_exporters;
    Alcotest.test_case "--snapshot-in rejects a plain --deltas log" `Quick
      test_snapshot_in_needs_wal ]
  @ List.map
      (fun (name, args, flag, mode) ->
        Alcotest.test_case name `Quick (rejected args ~flag ~mode))
      [ ("shards reject --crash-after",
         [ "--shards"; "2"; "--crash-after"; "50" ], "--crash-after", sharded);
        ("shards reject --plan-out", [ "--shards"; "2"; "--plan-out"; "p" ],
         "--plan-out", sharded);
        ("shards reject --snapshot-out",
         [ "--shards"; "2"; "--snapshot-out"; "s" ], "--snapshot-out", sharded);
        ("shards reject --kill-primary-at",
         [ "--shards"; "2"; "--replicas"; "1"; "--kill-primary-at"; "50" ],
         "--kill-primary-at", sharded);
        ("shards reject --hand-over-at",
         [ "--shards"; "2"; "--replicas"; "1"; "--hand-over-at"; "50" ],
         "--hand-over-at", sharded);
        ("--kill-primary-at needs --replicas", [ "--kill-primary-at"; "50" ],
         "--kill-primary-at", single);
        ("--hand-over-at needs --replicas", [ "--hand-over-at"; "50" ],
         "--hand-over-at", single);
        ("--rebalance-every needs --shards", [ "--rebalance-every"; "20" ],
         "--rebalance-every", single);
        ("--split needs --shards", [ "--split"; "demand" ], "--split", single);
        ("--shard-tags needs --shards", [ "--shard-tags"; "a,b" ],
         "--shard-tags", single);
        ("replicas reject --rebalance-k",
         [ "--replicas"; "1"; "--rebalance-k"; "2" ], "--rebalance-k",
         "replicated mode (--replicas)") ]
