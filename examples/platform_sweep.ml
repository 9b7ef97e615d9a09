(* Design-space exploration with the Hypar_explore engine: sweep A_FPGA,
   the CGC count and the clock ratio for a matrix-multiplication workload,
   printing one series per axis (the shape behind the paper's §4
   observations).  Each sweep is a declarative Space expanded and
   evaluated by Driver.run — no hand-rolled grid loops.

   Run with:  dune exec examples/platform_sweep.exe *)

module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Space = Hypar_explore.Space
module Driver = Hypar_explore.Driver
module Eval = Hypar_explore.Eval

let results space prepared =
  match Driver.run ~workload:"matmul16" prepared space with
  | Ok summary -> summary.Driver.results
  | Error msg -> failwith msg

let iter_ok f rs =
  Array.iter
    (fun (r : Driver.point_result) ->
      match r.Driver.outcome with
      | Ok m -> f r.Driver.point m
      | Error msg ->
        Printf.printf "%8d  FAILED: %s\n" r.Driver.point.Space.area msg)
    rs

let () =
  let n = 16 in
  let inputs =
    [
      ("a", Array.init (n * n) (fun i -> (i * 7) mod 23));
      ("b", Array.init (n * n) (fun i -> (i * 5) mod 19));
    ]
  in
  let prepared =
    Flow.prepare ~name:"matmul16" ~inputs (Hypar_apps.Synth.matmul_source ~n)
  in
  let budget =
    match
      Eval.evaluate prepared
        { Space.area = 1500; cgcs = 2; rows = 2; cols = 2; clock_ratio = 3;
          timing = max_int }
    with
    | Ok m -> m.Eval.initial.Engine.t_total / 2
    | Error msg -> failwith msg
  in
  Printf.printf "matmul %dx%d — timing constraint %d cycles\n\n" n n budget;

  Printf.printf "A_FPGA sweep (two 2x2 CGCs):\n";
  Printf.printf "%8s %14s %14s %10s %8s\n" "A_FPGA" "initial" "final" "reduction"
    "moved";
  results
    (Space.make ~areas:[ 500; 1000; 1500; 2500; 5000; 10000 ] ~cgcs:[ 2 ]
       ~timings:[ budget ] ())
    prepared
  |> iter_ok (fun p m ->
         Printf.printf "%8d %14d %14d %9.1f%% %8d\n" p.Space.area
           m.Eval.initial.Engine.t_total m.Eval.final.Engine.t_total
           m.Eval.reduction
           (List.length m.Eval.moved));

  Printf.printf "\nCGC count sweep (A_FPGA = 1500):\n";
  Printf.printf "%8s %14s %14s %10s\n" "CGCs" "cycles-in-CGC" "final" "reduction";
  results
    (Space.make ~areas:[ 1500 ] ~cgcs:[ 1; 2; 3; 4 ] ~timings:[ budget ] ())
    prepared
  |> iter_ok (fun p m ->
         Printf.printf "%8d %14d %14d %9.1f%%\n" p.Space.cgcs
           m.Eval.final.Engine.t_coarse_cgc m.Eval.final.Engine.t_total
           m.Eval.reduction);

  Printf.printf "\nClock-ratio sweep (A_FPGA = 1500, two 2x2 CGCs):\n";
  Printf.printf "%8s %14s %10s\n" "ratio" "final" "reduction";
  results
    (Space.make ~areas:[ 1500 ] ~cgcs:[ 2 ] ~clock_ratios:[ 1; 2; 3; 4; 6 ]
       ~timings:[ budget ] ())
    prepared
  |> iter_ok (fun p m ->
         Printf.printf "%8d %14d %9.1f%%\n" p.Space.clock_ratio
           m.Eval.final.Engine.t_total m.Eval.reduction)
