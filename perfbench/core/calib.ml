(* Host-speed probe.

   The benchmark's host is shared, and for memory-bound code like the
   engine its speed flips between modes about 2x apart for seconds to
   minutes at a time; no sample window inside one run escapes a long
   slow spell. The probe is a fixed piece of work shaped like the
   engine's hot path (hash-table lookups over boxed keys, short-lived
   list allocation) and sharing none of its code, so a change to the
   engine cannot move it. Timing it next to each measurement gives the
   host's speed at that moment; the benchmark reports its timings scaled
   to [nominal], the probe's time when the host runs at its best. *)

let keys = 200_000
let iterations = 8_000

(* The probe's seconds on an unloaded 2-vCPU Xeon host (the fast mode
   of the reference host); only the scale of the reported figures
   depends on it, not their stability. *)
let nominal = 0.0024

let table =
  lazy
    (let t = Hashtbl.create keys in
     for i = 0 to keys - 1 do
       Hashtbl.replace t i (string_of_int i)
     done;
     t)

let probe () =
  let t = Lazy.force table in
  let t0 = Clock.now () in
  let acc = ref 0 in
  for i = 1 to iterations do
    let k = ((i * 7919) + 13) mod keys in
    let l = List.init 8 (fun j -> j + k) in
    acc := !acc + String.length (Hashtbl.find t k) + List.length l
  done;
  ignore (Sys.opaque_identity !acc);
  Clock.now () -. t0

(* How much slower than nominal the host runs right now (> 1 when
   slow). *)
let slowdown () = probe () /. nominal
