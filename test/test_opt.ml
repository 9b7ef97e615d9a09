(* Unit tests for the algebraic simplification and local CSE passes. *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let compile_raw src = Driver.compile_exn ~simplify:false src

let out0 ?(inputs = []) cdfg =
  (Interp.array_exn (Interp.run ~inputs cdfg) "out").(0)

let count_class cdfg cls =
  Array.fold_left
    (fun acc (bi : Ir.Cdfg.block_info) ->
      acc
      + List.length
          (List.filter
             (fun i -> Ir.Instr.op_class i = cls)
             bi.block.Ir.Block.instrs))
    0 (Ir.Cdfg.infos cdfg)

let test_mul_by_power_of_two () =
  let cdfg = compile_raw {|
int out[1];
int in[1];
void main() { out[0] = in[0] * 8; }
|} in
  let opt = Ir.Passes.algebraic_simplify cdfg in
  Alcotest.(check int) "multiplier became a shift" 0
    (count_class opt Ir.Types.Class_mul);
  Alcotest.(check int) "value preserved" 40 (out0 ~inputs:[ ("in", [| 5 |]) ] opt)

let test_identities () =
  let src = {|
int out[4];
int in[1];
void main() {
  int x = in[0];
  out[0] = x + 0;
  out[1] = x * 1;
  out[2] = (x ^ x) + (x | x);
  out[3] = x << 0;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.simplify raw in
  let run cdfg = Interp.array_exn (Interp.run ~inputs:[ ("in", [| 9 |]) ] cdfg) "out" in
  Alcotest.(check (array int)) "same results" (run raw) (run opt);
  (* x+0, x*1, x<<0 all vanish; x^x and x|x fold *)
  Alcotest.(check bool) "fewer instructions" true
    (Ir.Cdfg.total_instrs opt < Ir.Cdfg.total_instrs raw)

let test_cse_pure_expression () =
  let cdfg = compile_raw {|
int out[1];
int in[2];
void main() {
  int a = in[0];
  int b = in[1];
  out[0] = (a * b + 3) + (a * b + 3);
}
|} in
  let opt = Ir.Passes.simplify cdfg in
  Alcotest.(check int) "one multiplication left" 1
    (count_class opt Ir.Types.Class_mul);
  Alcotest.(check int) "value preserved" 70
    (out0 ~inputs:[ ("in", [| 4; 8 |]) ] opt)

let test_cse_commutative () =
  let cdfg = compile_raw {|
int out[1];
int in[2];
void main() {
  int a = in[0];
  int b = in[1];
  out[0] = a * b + b * a;
}
|} in
  let opt = Ir.Passes.simplify cdfg in
  Alcotest.(check int) "a*b and b*a share one multiplier" 1
    (count_class opt Ir.Types.Class_mul)

let test_cse_respects_redefinition () =
  let cdfg = compile_raw {|
int out[1];
int in[1];
void main() {
  int a = in[0];
  int x = a + 1;
  a = a * 2;
  int y = a + 1;
  out[0] = x + y;
}
|} in
  let opt = Ir.Passes.simplify cdfg in
  (* (5+1) + (10+1) = 17, not (5+1)*2 *)
  Alcotest.(check int) "redefinition invalidates the expression" 17
    (out0 ~inputs:[ ("in", [| 5 |]) ] opt)

let test_cse_loads_blocked_by_store () =
  let cdfg = compile_raw {|
int out[1];
int t[2];
int in[1];
void main() {
  t[0] = in[0];
  int a = t[0];
  t[0] = a + 1;
  int b = t[0];
  out[0] = a * 100 + b;
}
|} in
  let opt = Ir.Passes.simplify cdfg in
  Alcotest.(check int) "store invalidates cached load" 506
    (out0 ~inputs:[ ("in", [| 5 |]) ] opt)

let test_cse_reuses_loads () =
  let cdfg = compile_raw {|
int out[1];
int in[4];
void main() {
  out[0] = in[2] + in[2] + in[2];
}
|} in
  let opt = Ir.Passes.simplify cdfg in
  let loads = count_class opt Ir.Types.Class_mem in
  (* 1 reused load + 1 store to out *)
  Alcotest.(check int) "single load survives" 2 loads

let test_self_comparison () =
  let cdfg = compile_raw {|
int out[1];
int in[1];
void main() {
  int a = in[0];
  out[0] = (a == a) + (a != a) + (a <= a) + (a < a);
}
|} in
  let opt = Ir.Passes.simplify cdfg in
  Alcotest.(check int) "1 + 0 + 1 + 0" 2 (out0 ~inputs:[ ("in", [| -3 |]) ] opt)

let test_random_semantics_with_full_pipeline () =
  for seed = 50 to 65 do
    let raw = compile_raw (Hypar_fuzzgen.Gen.source seed) in
    Outputs.check (Printf.sprintf "seed %d" seed) raw (Ir.Passes.simplify raw)
  done

let suite =
  [
    Alcotest.test_case "mul by power of two" `Quick test_mul_by_power_of_two;
    Alcotest.test_case "identities" `Quick test_identities;
    Alcotest.test_case "CSE pure expressions" `Quick test_cse_pure_expression;
    Alcotest.test_case "CSE commutativity" `Quick test_cse_commutative;
    Alcotest.test_case "CSE respects redefinition" `Quick test_cse_respects_redefinition;
    Alcotest.test_case "CSE blocked by stores" `Quick test_cse_loads_blocked_by_store;
    Alcotest.test_case "CSE reuses loads" `Quick test_cse_reuses_loads;
    Alcotest.test_case "self comparisons" `Quick test_self_comparison;
    Alcotest.test_case "random full pipeline" `Quick test_random_semantics_with_full_pipeline;
  ]
