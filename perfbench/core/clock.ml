(* Monotonic seconds, nanosecond resolution (CLOCK_MONOTONIC). *)
external now : unit -> (float[@unboxed]) = "perfbench_now_byte" "perfbench_now"
[@@noalloc]
