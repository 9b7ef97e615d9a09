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
    || Ir.Dfg.nodes d1 <> Ir.Dfg.nodes d3)

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

let suite =
  [
    Alcotest.test_case "random DFG determinism" `Quick test_random_dfg_determinism;
    Alcotest.test_case "random DFG sizes" `Quick test_random_dfg_size;
    Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
  ]
