(* What a run attempted, what failed, and the latency of each op.  Every
   output check of every workload lands here, so [failed] is the one
   place an error shows.

   A timed phase is cut into stretches, each begun by [calibrate], which
   measures the host ({!Host}).  Latencies and busy time recorded in a
   stretch are scaled by that stretch's [scale]; with no calibration the
   scale stays 1 (the traced run). *)

type t = {
  mutable latencies_ms : float list;  (* scaled to the reference host *)
  mutable raw_ms : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* first few, newest first *)
  mutable calibrations_ms : float list;
  mutable scale : float;  (* Host.reference_ms / the latest calibration *)
  mutable stretch_start : float option;
  mutable busy_s : float;  (* wall time of the closed stretches *)
  mutable scaled_busy_s : float;  (* the same, scaled *)
}

let create () =
  { latencies_ms = []; raw_ms = []; attempted = 0; failed = 0; problems = [];
    calibrations_ms = []; scale = 1.0; stretch_start = None; busy_s = 0.0;
    scaled_busy_s = 0.0 }

(* Closes the current stretch, if one is open. *)
let finish t =
  Option.iter
    (fun start ->
      let s = Unix.gettimeofday () -. start in
      t.busy_s <- t.busy_s +. s;
      t.scaled_busy_s <- t.scaled_busy_s +. (s *. t.scale))
    t.stretch_start;
  t.stretch_start <- None

(* Closes the current stretch, measures the host and opens the next
   stretch.  [measure] is for tests. *)
let calibrate ?(measure = Host.measure_ms) t =
  finish t;
  let ms = measure () in
  t.calibrations_ms <- ms :: t.calibrations_ms;
  t.scale <- Host.reference_ms /. ms;
  t.stretch_start <- Some (Unix.gettimeofday ())

let max_problems = 20

let problem t msg =
  if List.length t.problems < max_problems then t.problems <- msg :: t.problems

(* One op: [error] is [None] when its outputs checked out. *)
let record t ?latency_ms error =
  t.attempted <- t.attempted + 1;
  Option.iter
    (fun l ->
      t.raw_ms <- l :: t.raw_ms;
      t.latencies_ms <- (l *. t.scale) :: t.latencies_ms)
    latency_ms;
  match error with
  | None -> ()
  | Some msg ->
    t.failed <- t.failed + 1;
    problem t msg

let now_ms () = Unix.gettimeofday () *. 1000.0

(* [time f] is [f ()]'s result and its wall time in milliseconds. *)
let time f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* Closed loop, one client: run [op] back to back, each in a stretch of
   its own, until [until] has passed and at least [min_ops] ran, never
   past [hard_stop] (seconds).  [op] records itself; an exception counts
   as a failed op.  Returns the wall seconds of the loop. *)
let closed_loop t ~until ~min_ops ~hard_stop op =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while
    (!n < min_ops || Unix.gettimeofday () < until)
    && Unix.gettimeofday () < hard_stop
  do
    calibrate t;
    let start = now_ms () in
    (try op ()
     with e ->
       record t ~latency_ms:(now_ms () -. start)
         (Some ("op raised " ^ Printexc.to_string e)));
    incr n
  done;
  finish t;
  Unix.gettimeofday () -. t0
