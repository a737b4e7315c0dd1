let float_to_string x =
  if x = infinity then "inf" else Printf.sprintf "%.17g" x

let to_string inst =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let ns = Instance.num_streams inst and nu = Instance.num_users inst in
  let m = Instance.m inst and mc = Instance.mc inst in
  addf "mmd %s\n" (Instance.name inst);
  addf "dims %d %d %d %d\n" ns nu m mc;
  addf "budget";
  for i = 0 to m - 1 do
    addf " %s" (float_to_string (Instance.budget inst i))
  done;
  addf "\n";
  for s = 0 to ns - 1 do
    addf "stream %d" s;
    for i = 0 to m - 1 do
      addf " %s" (float_to_string (Instance.server_cost inst s i))
    done;
    addf "\n"
  done;
  for u = 0 to nu - 1 do
    addf "user %d %s" u (float_to_string (Instance.utility_cap inst u));
    for j = 0 to mc - 1 do
      addf " %s" (float_to_string (Instance.capacity inst u j))
    done;
    addf "\n"
  done;
  for u = 0 to nu - 1 do
    Array.iter
      (fun s ->
        addf "edge %d %d %s" u s
          (float_to_string (Instance.utility inst u s));
        for j = 0 to mc - 1 do
          addf " %s" (float_to_string (Instance.load inst u s j))
        done;
        addf "\n")
      (Instance.interesting_streams inst u)
  done;
  Buffer.contents buf

let parse_float lineno tok =
  match tok with
  | "inf" | "infinity" -> infinity
  | _ -> (
      match float_of_string_opt tok with
      | Some x -> x
      | None ->
          failwith
            (Printf.sprintf "Io.of_string: line %d: bad number %S" lineno tok))

let parse_int lineno tok =
  match int_of_string_opt tok with
  | Some x -> x
  | None ->
      failwith
        (Printf.sprintf "Io.of_string: line %d: bad integer %S" lineno tok)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let name = ref "unnamed" in
  let dims = ref None in
  let budget = ref [||] in
  let server_cost = ref [||] in
  let load = ref [||] in
  let capacity = ref [||] in
  let utility = ref [||] in
  let utility_cap = ref [||] in
  let require_dims lineno =
    match !dims with
    | Some d -> d
    | None ->
        failwith
          (Printf.sprintf
             "Io.of_string: line %d: 'dims' must precede data lines" lineno)
  in
  let expect_count lineno what expected actual =
    if expected <> actual then
      failwith
        (Printf.sprintf "Io.of_string: line %d: %s expects %d values, got %d"
           lineno what expected actual)
  in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let tokens =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun t -> t <> "")
      in
      match tokens with
      | [] -> ()
      | "mmd" :: rest -> name := String.concat " " rest
      | [ "dims"; ns; nu; m; mc ] ->
          let ns = parse_int lineno ns and nu = parse_int lineno nu in
          let m = parse_int lineno m and mc = parse_int lineno mc in
          if ns < 0 || nu < 0 || m < 0 || mc < 0 then
            failwith
              (Printf.sprintf "Io.of_string: line %d: negative dimension"
                 lineno);
          dims := Some (ns, nu, m, mc);
          budget := Array.make m infinity;
          server_cost := Array.init ns (fun _ -> Array.make m 0.);
          load :=
            Array.init nu (fun _ ->
                Array.init ns (fun _ -> Array.make mc 0.));
          capacity := Array.init nu (fun _ -> Array.make mc infinity);
          utility := Array.init nu (fun _ -> Array.make ns 0.);
          utility_cap := Array.make nu infinity
      | "budget" :: vals ->
          let _, _, m, _ = require_dims lineno in
          expect_count lineno "budget" m (List.length vals);
          List.iteri
            (fun i v -> !budget.(i) <- parse_float lineno v)
            vals
      | "stream" :: s :: vals ->
          let ns, _, m, _ = require_dims lineno in
          let s = parse_int lineno s in
          if s < 0 || s >= ns then
            failwith
              (Printf.sprintf "Io.of_string: line %d: stream id out of range"
                 lineno);
          expect_count lineno "stream" m (List.length vals);
          List.iteri
            (fun i v -> !server_cost.(s).(i) <- parse_float lineno v)
            vals
      | "user" :: u :: w :: vals ->
          let _, nu, _, mc = require_dims lineno in
          let u = parse_int lineno u in
          if u < 0 || u >= nu then
            failwith
              (Printf.sprintf "Io.of_string: line %d: user id out of range"
                 lineno);
          !utility_cap.(u) <- parse_float lineno w;
          expect_count lineno "user" mc (List.length vals);
          List.iteri
            (fun j v -> !capacity.(u).(j) <- parse_float lineno v)
            vals
      | "edge" :: u :: s :: w :: vals ->
          let ns, nu, _, mc = require_dims lineno in
          let u = parse_int lineno u and s = parse_int lineno s in
          if u < 0 || u >= nu || s < 0 || s >= ns then
            failwith
              (Printf.sprintf "Io.of_string: line %d: edge ids out of range"
                 lineno);
          !utility.(u).(s) <- parse_float lineno w;
          expect_count lineno "edge" mc (List.length vals);
          List.iteri
            (fun j v -> !load.(u).(s).(j) <- parse_float lineno v)
            vals
      | keyword :: _ ->
          failwith
            (Printf.sprintf "Io.of_string: line %d: unknown keyword %S"
               lineno keyword))
    lines;
  let mc =
    match !dims with
    | None -> failwith "Io.of_string: missing 'dims' line"
    | Some (_, _, _, mc) -> mc
  in
  try
    Instance.create ~name:!name ~mc ~server_cost:!server_cost ~budget:!budget
      ~load:!load ~capacity:!capacity ~utility:!utility
      ~utility_cap:!utility_cap ()
  with Invalid_argument msg -> failwith ("Io.of_string: " ^ msg)

let write_file path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      of_string text)

let assignment_to_string a =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "plan\n";
  for u = 0 to Assignment.num_users a - 1 do
    match Assignment.user_streams a u with
    | [] -> ()
    | streams ->
        Buffer.add_string buf (Printf.sprintf "user %d" u);
        List.iter
          (fun s -> Buffer.add_string buf (Printf.sprintf " %d" s))
          streams;
        Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let assignment_of_string ~num_users text =
  let sets = Array.make num_users [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let tokens =
        String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
      in
      match tokens with
      | [] | [ "plan" ] -> ()
      | "user" :: u :: streams ->
          let u = parse_int lineno u in
          if u < 0 || u >= num_users then
            failwith
              (Printf.sprintf
                 "Io.assignment_of_string: line %d: user out of range" lineno);
          sets.(u) <- List.map (parse_int lineno) streams
      | keyword :: _ ->
          failwith
            (Printf.sprintf
               "Io.assignment_of_string: line %d: unknown keyword %S" lineno
               keyword))
    (String.split_on_char '\n' text);
  Assignment.of_sets sets

let write_assignment path a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (assignment_to_string a))

let read_assignment path ~num_users =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      assignment_of_string ~num_users (really_input_string ic len))
