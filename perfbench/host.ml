(* How fast the host runs right now, measured on a fixed piece of work.

   A shared host runs this benchmark 20-50% slower for stretches of
   seconds to minutes, when its neighbours load the memory system, so raw
   op times of the same code spread across runs by more than any useful
   bound.  The kernel below is allocation-heavy OCaml (decimal strings in
   a balanced map), the kind of work the compiler and the profiler do,
   and it slows in step with the ops.  So the benchmark reports host
   times scaled to a host on which the kernel takes [reference_ms], each
   by the kernel time measured just before it, and prints the raw times
   beside them.  The kernel uses the standard library only, so no change
   to the program's code moves it.

   The kernel runs on the benchmark's main thread, where a closed-loop
   workload's ops run and [serve_mix]'s client runs.  Over 30-second
   windows of one long run on a 2-vCPU Xeon at 2.0 GHz, op time scaled
   this way spread 3-5 times less than raw op time: paper_flow 0.049
   against 0.188, explore_sweep 0.036 against 0.155, a serve_mix script
   cycle 0.040 against 0.185.  The same kernel in a child process did
   worse (0.072, 0.092, 0.081), as it may run on the other CPU.  In
   [serve_mix] every minor collection of the kernel also stops the
   session's idle domains, so a change to the number of those domains
   moves the kernel too, and is to be judged on the raw times as well. *)

module M = Map.Make (String)

let keys = 20_000

let kernel () =
  let m = ref M.empty in
  for i = 0 to keys do
    m := M.add (string_of_int ((i * 7919) land 0xffff)) i !m
  done;
  let sum = ref 0 in
  for i = 0 to keys do
    match M.find_opt (string_of_int i) !m with
    | Some v -> sum := !sum + v
    | None -> ()
  done;
  ignore (Sys.opaque_identity !sum)

(* The kernel's median time on the host the bounds were set on, a
   2-vCPU Xeon at 2.0 GHz.  Fixed: changing it, or the kernel, rescales
   every reported time. *)
let reference_ms = 29.0

(* One kernel run; its wall time in ms. *)
let measure_ms () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  (Unix.gettimeofday () -. t0) *. 1000.0
