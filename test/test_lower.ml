(* Unit tests for AST -> CDFG lowering: control-flow shapes (rotated
   loops), operator semantics through the interpreter, and global
   handling. *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let compile = Driver.compile_exn

let run_out0 ?(inputs = []) src =
  (Interp.array_exn (Interp.run ~inputs (compile src)) "out").(0)

let test_rotated_for_shape () =
  let cdfg =
    compile {|
int out[4];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    s = s + i;
  }
  out[0] = s;
}
|}
  in
  (* rotation: entry (with guard), body (self-looping), exit — 3 blocks *)
  Alcotest.(check int) "three blocks" 3 (Ir.Cdfg.block_count cdfg);
  let cfg = Ir.Cdfg.cfg cdfg in
  let body = Ir.Cfg.id_of_label cfg (Ir.Cfg.block cfg 1).Ir.Block.label in
  Alcotest.(check bool) "body loops to itself" true
    (List.mem body (Ir.Cfg.successors cfg body))

let test_zero_trip_loop () =
  let v = run_out0 {|
int out[4];
void main() {
  int s = 5;
  int i;
  for (i = 0; i < 0; i = i + 1) {
    s = 999;
  }
  out[0] = s;
}
|} in
  Alcotest.(check int) "guard skips body entirely" 5 v

let test_do_while () =
  let v = run_out0 {|
int out[4];
void main() {
  int s = 0;
  int i = 10;
  do {
    s = s + 1;
  } while (i < 5);
  out[0] = s;
}
|} in
  Alcotest.(check int) "do-while executes at least once" 1 v

let test_operator_semantics () =
  let check src expected =
    Alcotest.(check int) src expected (run_out0 src)
  in
  check "int out[4]; void main() { out[0] = 7 % 3; }" 1;
  check "int out[4]; void main() { out[0] = 7 / 2; }" 3;
  check "int out[4]; void main() { out[0] = (0 - 13) >> 2; }" (-4);
  check "int out[4]; void main() { out[0] = 1 << 10; }" 1024;
  check "int out[4]; void main() { out[0] = 5 & 3; }" 1;
  check "int out[4]; void main() { out[0] = 5 | 3; }" 7;
  check "int out[4]; void main() { out[0] = 5 ^ 3; }" 6;
  check "int out[4]; void main() { out[0] = ~0; }" (-1);
  check "int out[4]; void main() { out[0] = !5; }" 0;
  check "int out[4]; void main() { out[0] = !0; }" 1;
  check "int out[4]; void main() { out[0] = 3 && 0; }" 0;
  check "int out[4]; void main() { out[0] = 3 && 2; }" 1;
  check "int out[4]; void main() { out[0] = 0 || 7; }" 1;
  check "int out[4]; void main() { out[0] = min(3, 9); }" 3;
  check "int out[4]; void main() { out[0] = max(3, 9); }" 9;
  check "int out[4]; void main() { out[0] = abs(0 - 9); }" 9;
  check "int out[4]; void main() { out[0] = 1 ? 11 : 22; }" 11;
  check "int out[4]; void main() { out[0] = 0 ? 11 : 22; }" 22

let test_comparison_chain () =
  let v = run_out0 {|
int out[4];
void main() {
  int a = 3;
  int b = 5;
  out[0] = (a < b) + (a <= 3) + (b > 4) + (b >= 6) + (a == 3) + (a != 3);
}
|} in
  Alcotest.(check int) "comparison results are 0/1" 4 v

let test_global_scalars_initialised () =
  let v = run_out0 {|
int out[4];
int g = 40;
int h;
void main() { out[0] = g + h + 2; }
|} in
  Alcotest.(check int) "g=40, h defaults to 0" 42 v

let test_const_rom () =
  let cdfg = compile {|
const int rom[4] = { 10, 20, 30 };
int out[4];
void main() { out[0] = rom[1] + rom[3]; }
|} in
  (match Ir.Cdfg.array_decl cdfg "rom" with
  | Some d ->
    Alcotest.(check bool) "is const" true d.Ir.Cdfg.is_const;
    (match d.Ir.Cdfg.init with
    | Some init -> Alcotest.(check int) "padded with zeros" 0 init.(3)
    | None -> Alcotest.fail "missing init")
  | None -> Alcotest.fail "rom not declared");
  let r = Interp.run cdfg in
  Alcotest.(check int) "rom read" 20 (Interp.array_exn r "out").(0)

let test_if_without_else () =
  let v = run_out0 {|
int out[4];
void main() {
  int x = 1;
  if (x > 0) { x = x + 10; }
  if (x < 0) { x = 999; }
  out[0] = x;
}
|} in
  Alcotest.(check int) "if-only joins correctly" 11 v

let test_nested_control () =
  let v = run_out0 {|
int out[4];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 4; i = i + 1) {
    if (i & 1) {
      int j;
      for (j = 0; j < i; j = j + 1) { s = s + 1; }
    } else {
      s = s + 10;
    }
  }
  out[0] = s;
}
|} in
  (* i=0: +10, i=1: +1, i=2: +10, i=3: +3 *)
  Alcotest.(check int) "nested loops and branches" 24 v

let test_validate_passes () =
  let cdfg = compile Hypar_apps.Ofdm.source in
  (match Ir.Cdfg.validate cdfg with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "ofdm failed validation: %s" msg);
  Alcotest.(check bool) "all DFGs well-formed" true
    (List.for_all
       (fun i -> Ir.Dfg.is_well_formed (Ir.Cdfg.dfg cdfg i))
       (Ir.Cdfg.block_ids cdfg))

let suite =
  [
    Alcotest.test_case "rotated for shape" `Quick test_rotated_for_shape;
    Alcotest.test_case "zero-trip loop" `Quick test_zero_trip_loop;
    Alcotest.test_case "do-while" `Quick test_do_while;
    Alcotest.test_case "operator semantics" `Quick test_operator_semantics;
    Alcotest.test_case "comparison chain" `Quick test_comparison_chain;
    Alcotest.test_case "global scalars" `Quick test_global_scalars_initialised;
    Alcotest.test_case "const ROM arrays" `Quick test_const_rom;
    Alcotest.test_case "if without else" `Quick test_if_without_else;
    Alcotest.test_case "nested control" `Quick test_nested_control;
    Alcotest.test_case "validation of OFDM" `Quick test_validate_passes;
  ]
