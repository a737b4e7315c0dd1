(* In-memory span recorder for the traced pass.

   The benchmark opens a span around each of its own calls into a
   layer: name, start, end, parent and the id of the batch it belongs
   to. Spans live in flat growable arrays (no allocation per span
   beyond amortized growth), are folded into per-name self time at the
   end, and are written out only when the run is over. *)

type t = {
  mutable len : int;
  mutable name : int array;
  mutable parent : int array;
  mutable batch : int array;
  mutable start : Float.Array.t;
  mutable stop : Float.Array.t;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable cur : int;  (** innermost open span, [-1] at top level *)
  mutable batch_id : int;
}

let create () =
  let cap = 1024 in
  { len = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    batch = Array.make cap 0;
    start = Float.Array.make cap 0.;
    stop = Float.Array.make cap 0.;
    names = Hashtbl.create 32;
    name_of = [||];
    cur = -1;
    batch_id = 0 }

let now = Clock.now

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.replace t.names name i;
      t.name_of <- Array.append t.name_of [| name |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a =
    let b = Float.Array.make cap 0. in
    Float.Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- ints t.name;
  t.parent <- ints t.parent;
  t.batch <- ints t.batch;
  t.start <- floats t.start;
  t.stop <- floats t.stop

let push t name ~parent ~start ~stop =
  if t.len = Array.length t.name then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.name.(id) <- intern t name;
  t.parent.(id) <- parent;
  t.batch.(id) <- t.batch_id;
  Float.Array.set t.start id start;
  Float.Array.set t.stop id stop;
  id

let enter t name =
  let id = push t name ~parent:t.cur ~start:(now ()) ~stop:nan in
  t.cur <- id;
  id

let leave t id =
  Float.Array.set t.stop id (now ());
  t.cur <- t.parent.(id)

let span t name f =
  let id = enter t name in
  match f () with
  | v ->
      leave t id;
      v
  | exception e ->
      leave t id;
      raise e

(* A finished child of [parent] known only by its duration (time the
   engine measured itself), placed at the end of the parent. *)
let child t ~parent name ~seconds =
  let stop = Float.Array.get t.stop parent in
  ignore (push t name ~parent ~start:(stop -. seconds) ~stop)

let next_batch t = t.batch_id <- t.batch_id + 1
let duration t id = Float.Array.get t.stop id -. Float.Array.get t.start id

(* Self time per span name: each span's duration minus the durations
   of its direct children. Returned as (name, self seconds, span
   count), largest first. *)
let self_times t =
  let self = Float.Array.init t.len (fun id -> duration t id) in
  for id = 0 to t.len - 1 do
    let p = t.parent.(id) in
    if p >= 0 then Float.Array.set self p (Float.Array.get self p -. duration t id)
  done;
  let acc = Hashtbl.create 16 in
  for id = 0 to t.len - 1 do
    let n = t.name_of.(t.name.(id)) in
    let s, c = Option.value (Hashtbl.find_opt acc n) ~default:(0., 0) in
    Hashtbl.replace acc n (s +. Float.Array.get self id, c + 1)
  done;
  Hashtbl.fold (fun n (s, c) l -> (n, s, c) :: l) acc []
  |> List.sort (fun (n1, s1, _) (n2, s2, _) ->
         match compare s2 s1 with 0 -> compare n1 n2 | c -> c)

(* Total duration of the spans with this name. *)
let total t name =
  match Hashtbl.find_opt t.names name with
  | None -> 0.
  | Some k ->
      let s = ref 0. in
      for id = 0 to t.len - 1 do
        if t.name.(id) = k then s := !s +. duration t id
      done;
      !s

(* One tab-separated line per span: id, name, parent, batch, start and
   end in seconds relative to the first span. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.len = 0 then 0. else Float.Array.get t.start 0 in
  output_string oc "id\tname\tparent\tbatch\tstart_s\tend_s\n";
  for id = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.9f\t%.9f\n" id t.name_of.(t.name.(id))
      t.parent.(id) t.batch.(id)
      (Float.Array.get t.start id -. t0)
      (Float.Array.get t.stop id -. t0)
  done;
  close_out oc
