(* Sanity tests for the synthetic workload generators. *)

module Ir = Hypar_ir
module Synth = Hypar_apps.Synth
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let test_random_dfg_determinism () =
  let d1 = Synth.random_dfg ~seed:42 ~nodes:50 () in
  let d2 = Synth.random_dfg ~seed:42 ~nodes:50 () in
  Alcotest.(check int) "same node count" (Ir.Dfg.node_count d1)
    (Ir.Dfg.node_count d2);
  Alcotest.(check (list int)) "same levels"
    (Array.to_list (Ir.Dfg.asap d1))
    (Array.to_list (Ir.Dfg.asap d2));
  let d3 = Synth.random_dfg ~seed:43 ~nodes:50 () in
  Alcotest.(check bool) "different seeds differ" true
    (Array.to_list (Ir.Dfg.asap d1) <> Array.to_list (Ir.Dfg.asap d3)
    || Ir.Dfg.op_counts d1 <> Ir.Dfg.op_counts d3)

let test_random_dfg_size () =
  List.iter
    (fun n ->
      let d = Synth.random_dfg ~seed:7 ~nodes:n () in
      (* stores pair with a mov, so node count >= requested *)
      Alcotest.(check bool)
        (Printf.sprintf "at least %d nodes" n)
        true
        (Ir.Dfg.node_count d >= n))
    [ 1; 10; 100 ]

let test_straightline_deterministic_and_runs () =
  let src1 = Synth.random_straightline_main ~seed:5 ~ops:30 () in
  let src2 = Synth.random_straightline_main ~seed:5 ~ops:30 () in
  Alcotest.(check string) "deterministic" src1 src2;
  let cdfg = Driver.compile_exn src1 in
  let r = Interp.run cdfg in
  Alcotest.(check bool) "terminates" true (r.Interp.instrs_executed > 0)

let test_structured_targets_depth () =
  let src = Synth.random_structured_main ~seed:3 ~depth:4 () in
  let cdfg = Driver.compile_exn ~simplify:false src in
  let cfg = Ir.Cdfg.cfg cdfg in
  Alcotest.(check bool) "has control flow" true (Ir.Cfg.block_count cfg > 3);
  (* bounded loops: execution terminates well within the fuel *)
  let r = Interp.run ~max_steps:50_000_000 cdfg in
  Alcotest.(check bool) "terminates" true (r.Interp.instrs_executed > 0)

let test_matmul_identity () =
  (* multiplying by the identity matrix returns the input *)
  let n = 6 in
  let identity =
    Array.init (n * n) (fun i -> if i / n = i mod n then 1 else 0)
  in
  let a = Array.init (n * n) (fun i -> (i * 13 mod 61) - 30) in
  let cdfg = Driver.compile_exn (Synth.matmul_source ~n) in
  let r =
    Interp.run ~inputs:[ ("a", a); ("b", identity) ] cdfg
  in
  Alcotest.(check bool) "A x I = A" true (Interp.array_exn r "c" = a)

let test_fir_impulse_response () =
  (* an impulse input reproduces the (shifted, scaled) coefficients *)
  let taps = 8 and samples = 16 in
  let x = Array.make (samples + taps) 0 in
  x.(0) <- 256;
  let h = Array.init taps (fun i -> i + 1) in
  let cdfg = Driver.compile_exn (Synth.fir_source ~taps ~samples) in
  let r = Interp.run ~inputs:[ ("x", x); ("h", h) ] cdfg in
  let y = Interp.array_exn r "y" in
  (* y[i] = x[i+t]*h[t] summed = 256*h[-i]... only y[0] sees the impulse
     at t=0: y[0] = 256*h[0] >> 8 = 1 *)
  Alcotest.(check int) "impulse through tap 0" 1 y.(0);
  Alcotest.(check int) "silence after the impulse passes" 0 y.(8)

let suite =
  [
    Alcotest.test_case "random DFG determinism" `Quick test_random_dfg_determinism;
    Alcotest.test_case "random DFG sizes" `Quick test_random_dfg_size;
    Alcotest.test_case "straight-line programs" `Quick test_straightline_deterministic_and_runs;
    Alcotest.test_case "structured programs" `Quick test_structured_targets_depth;
    Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
    Alcotest.test_case "FIR impulse" `Quick test_fir_impulse_response;
  ]
