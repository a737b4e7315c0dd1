(* Command line of the engine benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the run record (host fingerprint, checks, every figure), the
   per-layer self-time table when tracing, and as its last line the
   result object. Exits 1 when a correctness check failed, 2 on bad
   arguments. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload "
    ^ String.concat "|" (List.map (fun s -> s.Perfbench_core.Inputs.name) Perfbench_core.Inputs.all)
    ^ " --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let module B = Perfbench_core.Bench in
  let module I = Perfbench_core.Inputs in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let spec = match I.find (get "workload") with Some s -> s | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int "seed" in
  let seconds = match float_of_string_opt (get "seconds") with Some s when s > 0. -> s | _ -> usage () in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  let r = B.run spec ~seed ~seconds ~trace in
  if trace then print_string (B.layer_table_text r);
  print_endline (B.record_line r ~seconds ~trace);
  print_endline (B.result_line r);
  if not r.B.correct then exit 1
