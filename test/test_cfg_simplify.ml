(* Unit tests for the control-flow clean-up pass. *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let compile_raw src = Driver.compile_exn ~simplify:false src

let out0 ?(inputs = []) cdfg =
  (Interp.array_exn (Interp.run ~inputs cdfg) "out").(0)

let test_unreachable_removed_after_folding () =
  let cdfg = compile_raw {|
int out[1];
void main() {
  if (1 < 2) {
    out[0] = 10;
  } else {
    out[0] = 20;
  }
}
|} in
  let cleaned = Ir.Passes.simplify_cfg (Ir.Passes.const_fold cdfg) in
  Alcotest.(check int) "semantics" 10 (out0 cleaned);
  Alcotest.(check bool) "dead arm removed" true
    (Ir.Cdfg.block_count cleaned < Ir.Cdfg.block_count cdfg)

let test_straightline_collapses () =
  (* after folding, a pure straight-line program becomes a single block *)
  let cdfg = compile_raw {|
int out[1];
void main() {
  int a = 1;
  if (a) { a = a + 1; }
  if (a > 100) { a = 0; }
  out[0] = a;
}
|} in
  let cleaned = Ir.Passes.optimize cdfg in
  Alcotest.(check int) "semantics" 2 (out0 cleaned);
  Alcotest.(check int) "one block remains" 1 (Ir.Cdfg.block_count cleaned)

let test_loops_preserved () =
  let cdfg = compile_raw {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 7; i++) { s += i; }
  out[0] = s;
}
|} in
  let cleaned = Ir.Passes.simplify_cfg cdfg in
  Alcotest.(check int) "semantics" 21 (out0 cleaned);
  Alcotest.(check int) "loop structure intact" 1
    (List.length (Ir.Loop.find (Ir.Cdfg.cfg cleaned)))

let test_entry_stays_first () =
  let cdfg = compile_raw {|
int out[1];
void main() {
  int x = 3;
  if (x > 1) { x = 5; } else { x = 7; }
  out[0] = x;
}
|} in
  let cleaned = Ir.Passes.simplify_cfg cdfg in
  let cfg = Ir.Cdfg.cfg cleaned in
  Alcotest.(check int) "entry id 0" 0 (Ir.Cfg.entry cfg);
  Alcotest.(check int) "semantics" 5 (out0 cleaned)

let test_branch_semantics_after_cleanup () =
  (* data-dependent branches must survive untouched *)
  let src = {|
int out[1];
int in[1];
void main() {
  int x = in[0];
  if (x & 1) { out[0] = 100 + x; } else { out[0] = 200 + x; }
}
|} in
  let cleaned = Ir.Passes.optimize (compile_raw src) in
  Alcotest.(check int) "odd input" 103 (out0 ~inputs:[ ("in", [| 3 |]) ] cleaned);
  Alcotest.(check int) "even input" 204 (out0 ~inputs:[ ("in", [| 4 |]) ] cleaned)

let test_random_semantics () =
  for seed = 300 to 312 do
    let raw = compile_raw (Hypar_fuzzgen.Gen.source seed) in
    Outputs.check (Printf.sprintf "seed %d" seed) raw (Ir.Passes.simplify_cfg raw)
  done

let test_idempotent () =
  let cdfg = compile_raw (Hypar_fuzzgen.Gen.source 99) in
  let once = Ir.Passes.simplify_cfg cdfg in
  let twice = Ir.Passes.simplify_cfg once in
  Alcotest.(check int) "stable block count" (Ir.Cdfg.block_count once)
    (Ir.Cdfg.block_count twice)

let suite =
  [
    Alcotest.test_case "unreachable removed" `Quick test_unreachable_removed_after_folding;
    Alcotest.test_case "straight line collapses" `Quick test_straightline_collapses;
    Alcotest.test_case "loops preserved" `Quick test_loops_preserved;
    Alcotest.test_case "entry stays first" `Quick test_entry_stays_first;
    Alcotest.test_case "branch semantics" `Quick test_branch_semantics_after_cleanup;
    Alcotest.test_case "random semantics" `Quick test_random_semantics;
    Alcotest.test_case "idempotent" `Quick test_idempotent;
  ]
