open Helpers
module I = Mmd.Instance
module A = Mmd.Assignment

let simple () =
  I.create ~name:"simple"
    ~server_cost:[| [| 2. |]; [| 3. |]; [| 5. |] |]
    ~budget:[| 6. |]
    ~load:
      [| [| [| 1. |]; [| 1. |]; [| 1. |] |];
         [| [| 1. |]; [| 2. |]; [| 3. |] |] |]
    ~capacity:[| [| 2. |]; [| 4. |] |]
    ~utility:[| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |]
    ~utility_cap:[| 10.; 7. |]
    ()

let test_accessors () =
  let t = simple () in
  check_int "streams" 3 (I.num_streams t);
  check_int "users" 2 (I.num_users t);
  check_int "m" 1 (I.m t);
  check_int "mc" 1 (I.mc t);
  check_float "cost" 3. (I.server_cost t 1 0);
  check_float "budget" 6. (I.budget t 0);
  check_float "load" 2. (I.load t 1 1 0);
  check_float "capacity" 4. (I.capacity t 1 0);
  check_float "utility" 5. (I.utility t 1 1);
  check_float "cap" 7. (I.utility_cap t 1);
  check_float "max cost" 5. (I.max_server_cost t 0);
  check_bool "smd shaped" true (I.is_smd_shaped t)

let test_adjacency () =
  let t = simple () in
  Alcotest.(check (array int)) "interested" [| 0; 1 |] (I.interested_users t 0);
  Alcotest.(check (array int)) "interesting" [| 0; 1; 2 |]
    (I.interesting_streams t 1);
  check_float "stream total utility" 7. (I.stream_total_utility t 1)

let test_capacity_zeroing () =
  (* Stream 1 loads user 0 with 5 > capacity 2: utility forced to 0. *)
  let t =
    I.create
      ~server_cost:[| [| 1. |]; [| 1. |] |]
      ~budget:[| 10. |]
      ~load:[| [| [| 1. |]; [| 5. |] |] |]
      ~capacity:[| [| 2. |] |]
      ~utility:[| [| 3.; 4. |] |]
      ~utility_cap:[| infinity |]
      ()
  in
  check_float "kept" 3. (I.utility t 0 0);
  check_float "zeroed" 0. (I.utility t 0 1);
  Alcotest.(check (array int)) "adjacency reflects zeroing" [| 0 |]
    (I.interesting_streams t 0)

let test_size () =
  let t = simple () in
  (* 6 positive edges + 3 streams + 2 users *)
  check_int "size" 11 (I.size t)

let test_validation_errors () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "cost exceeds budget" (fun () ->
      I.create
        ~server_cost:[| [| 5. |] |]
        ~budget:[| 4. |]
        ~load:[| [| [||] |] |]
        ~capacity:[| [||] |]
        ~utility:[| [| 1. |] |]
        ~utility_cap:[| 1. |]
        ());
  expect_invalid "negative utility" (fun () ->
      I.create
        ~server_cost:[| [| 1. |] |]
        ~budget:[| 4. |]
        ~load:[| [| [||] |] |]
        ~capacity:[| [||] |]
        ~utility:[| [| -1. |] |]
        ~utility_cap:[| 1. |]
        ());
  expect_invalid "ragged utility" (fun () ->
      I.create
        ~server_cost:[| [| 1. |]; [| 1. |] |]
        ~budget:[| 4. |]
        ~load:[| [| [||]; [||] |] |]
        ~capacity:[| [||] |]
        ~utility:[| [| 1. |] |]
        ~utility_cap:[| 1. |]
        ());
  expect_invalid "wrong capacity rows" (fun () ->
      I.create
        ~server_cost:[| [| 1. |] |]
        ~budget:[| 4. |]
        ~load:[| [| [||] |] |]
        ~capacity:[| [||]; [||] |]
        ~utility:[| [| 1. |] |]
        ~utility_cap:[| 1. |]
        ())

let test_mc_zero () =
  let t =
    I.create
      ~server_cost:[| [| 1. |] |]
      ~budget:[| 4. |]
      ~load:[| [| [||] |] |]
      ~capacity:[| [||] |]
      ~utility:[| [| 2. |] |]
      ~utility_cap:[| infinity |]
      ()
  in
  check_int "mc zero" 0 (I.mc t);
  check_bool "smd shaped" true (I.is_smd_shaped t)

(* ---------- Io round-trips ---------- *)

let test_io_roundtrip_simple () =
  let t = simple () in
  let t' = Mmd.Io.of_string (Mmd.Io.to_string t) in
  check_int "streams" (I.num_streams t) (I.num_streams t');
  check_int "users" (I.num_users t) (I.num_users t');
  for u = 0 to 1 do
    for s = 0 to 2 do
      check_float "utility" (I.utility t u s) (I.utility t' u s);
      check_float "load" (I.load t u s 0) (I.load t' u s 0)
    done
  done;
  check_float "budget" (I.budget t 0) (I.budget t' 0);
  (* A catalog-only instance keeps the mc its dims line declares. *)
  let catalog =
    I.create ~name:"catalog" ~mc:1
      ~server_cost:[| [| 1. |]; [| 2. |] |]
      ~budget:[| 3. |] ~load:[||] ~capacity:[||] ~utility:[||]
      ~utility_cap:[||] ()
  in
  let catalog' = Mmd.Io.of_string (Mmd.Io.to_string catalog) in
  check_int "zero users" 0 (I.num_users catalog');
  check_int "mc kept without users" 1 (I.mc catalog');
  check_float "catalog cost" 2. (I.server_cost catalog' 1 0)

let test_io_infinities () =
  let t =
    I.create ~name:"inf"
      ~server_cost:[| [| 1. |] |]
      ~budget:[| infinity |]
      ~load:[| [| [| 1. |] |] |]
      ~capacity:[| [| infinity |] |]
      ~utility:[| [| 2. |] |]
      ~utility_cap:[| infinity |]
      ()
  in
  let t' = Mmd.Io.of_string (Mmd.Io.to_string t) in
  check_float "inf budget" infinity (I.budget t' 0);
  check_float "inf capacity" infinity (I.capacity t' 0 0);
  check_float "inf cap" infinity (I.utility_cap t' 0)

let test_io_parse_errors () =
  let expect_failure name text =
    match Mmd.Io.of_string text with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: expected Failure" name
  in
  expect_failure "missing dims" "mmd x\nbudget 1\n";
  expect_failure "bad number" "dims 1 1 1 0\nbudget x\n";
  expect_failure "unknown keyword" "dims 1 1 1 0\nbogus 1\n";
  expect_failure "stream out of range" "dims 1 1 1 0\nstream 5 1\n";
  expect_failure "wrong arity" "dims 1 1 2 0\nstream 0 1\n"

let test_io_comments_and_blanks () =
  let text =
    "# a comment\n\nmmd commented\ndims 1 1 1 1\nbudget 5\n\
     stream 0 1 # trailing\nuser 0 inf 10\nedge 0 0 3 1\n"
  in
  let t = Mmd.Io.of_string text in
  check_float "utility parsed" 3. (I.utility t 0 0);
  Alcotest.(check string) "name" "commented" (I.name t)

let io_roundtrip_qcheck =
  qtest ~count:50 "io round-trip preserves instances"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 5))
    (fun (ns, nu) ->
      let inst =
        random_mmd ~seed:(ns + (17 * nu)) ~num_streams:ns ~num_users:nu ~m:2
          ~mc:1 ~skew:4.
      in
      let inst' = Mmd.Io.of_string (Mmd.Io.to_string inst) in
      let ok = ref true in
      for u = 0 to nu - 1 do
        for s = 0 to ns - 1 do
          if
            not
              (Prelude.Float_ops.approx_equal (I.utility inst u s)
                 (I.utility inst' u s))
          then ok := false
        done
      done;
      !ok
      && I.num_streams inst' = ns
      && I.num_users inst' = nu
      && I.m inst' = 2
      && I.mc inst' = 1)

(* Fuzz: the parser must reject garbage with [Failure], never crash
   with anything else, and never loop. *)
let io_fuzz =
  qtest ~count:200 "parser survives arbitrary input"
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 200))
    (fun text ->
      match Mmd.Io.of_string text with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

let io_fuzz_structured =
  qtest ~count:100 "parser survives keyword-shaped garbage"
    QCheck2.Gen.(
      let keyword = oneofl [ "mmd"; "dims"; "budget"; "stream"; "user";
                             "edge"; "plan"; "#x"; "" ] in
      let tok =
        oneof [ keyword; map string_of_int (int_range (-5) 50);
                oneofl [ "inf"; "nan"; "-"; "1e400"; "x" ] ]
      in
      let line = map (String.concat " ") (list_size (int_range 0 6) tok) in
      map (String.concat "\n") (list_size (int_range 0 12) line))
    (fun text ->
      match Mmd.Io.of_string text with
      | _ -> true
      | exception Failure _ -> true
      | exception Invalid_argument _ ->
          (* NaN smuggled through float_of_string must still be caught
             as a validation error, which surfaces as Failure. *)
          false
      | exception _ -> false)

let test_assignment_roundtrip () =
  let a = A.of_sets [| [ 0; 2 ]; []; [ 1 ] |] in
  let text = Mmd.Io.assignment_to_string a in
  let a' = Mmd.Io.assignment_of_string ~num_users:3 text in
  for u = 0 to 2 do
    Alcotest.(check (list int)) "same sets" (A.user_streams a u)
      (A.user_streams a' u)
  done

let test_assignment_parse_errors () =
  (match Mmd.Io.assignment_of_string ~num_users:2 "user 5 1\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected out-of-range user");
  match Mmd.Io.assignment_of_string ~num_users:2 "bogus\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected unknown keyword"

(* ---------- pp smoke ---------- *)

let test_pp () =
  let t = simple () in
  let s = Format.asprintf "%a" I.pp t in
  check_bool "pp mentions dims" true
    (contains s "3 streams" && contains s "2 users")

let suite =
  [ ("accessors", `Quick, test_accessors);
    ("adjacency", `Quick, test_adjacency);
    ("capacity zeroing", `Quick, test_capacity_zeroing);
    ("input size", `Quick, test_size);
    ("validation errors", `Quick, test_validation_errors);
    ("mc = 0", `Quick, test_mc_zero);
    ("io round-trip", `Quick, test_io_roundtrip_simple);
    ("io infinities", `Quick, test_io_infinities);
    ("io parse errors", `Quick, test_io_parse_errors);
    ("io comments", `Quick, test_io_comments_and_blanks);
    io_roundtrip_qcheck;
    io_fuzz;
    io_fuzz_structured;
    ("assignment round-trip", `Quick, test_assignment_roundtrip);
    ("assignment parse errors", `Quick, test_assignment_parse_errors);
    ("pp", `Quick, test_pp) ]
