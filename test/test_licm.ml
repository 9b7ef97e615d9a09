(* Unit tests for loop-invariant code motion. *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let compile_raw src = Driver.compile_exn ~simplify:false src

let out0 ?(inputs = []) cdfg =
  (Interp.array_exn (Interp.run ~inputs cdfg) "out").(0)

(* instructions executed dynamically — LICM should lower this *)
let dyn_instrs ?(inputs = []) cdfg =
  (Interp.run ~inputs cdfg).Interp.instrs_executed

let test_hoists_invariant_mul () =
  let src = {|
int out[1];
int in[1];
void main() {
  int k = in[0];
  int s = 0;
  int i;
  for (i = 0; i < 100; i = i + 1) {
    s = s + k * 37 + i;
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  let inputs = [ ("in", [| 5 |]) ] in
  Alcotest.(check int) "value preserved" (out0 ~inputs raw) (out0 ~inputs opt);
  Alcotest.(check bool) "fewer dynamic instructions" true
    (dyn_instrs ~inputs opt < dyn_instrs ~inputs raw)

let test_loop_carried_not_hoisted () =
  let src = {|
int out[1];
void main() {
  int s = 1;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    s = s * 3;
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  Alcotest.(check int) "3^10 preserved" 59049 (out0 opt);
  Alcotest.(check int) "raw agrees" 59049 (out0 raw)

let test_zero_trip_safety () =
  (* the hoisted computation must not change behaviour when the loop
     never runs *)
  let src = {|
int out[1];
int in[1];
void main() {
  int k = in[0];
  int s = 7;
  int i;
  for (i = 0; i < in[0]; i = i + 1) {
    s = s + k * 1000;
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  let inputs = [ ("in", [| 0 |]) ] in
  Alcotest.(check int) "zero-trip result" 7 (out0 ~inputs opt);
  Alcotest.(check int) "matches raw" (out0 ~inputs raw) (out0 ~inputs opt)

let test_loads_hoisted_when_no_store () =
  let src = {|
int out[1];
int table[4];
int in[4];
void main() {
  table[0] = in[0];
  int s = 0;
  int i;
  for (i = 0; i < 50; i = i + 1) {
    s = s + table[0];
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  let inputs = [ ("in", [| 3 |]) ] in
  Alcotest.(check int) "sum preserved" 150 (out0 ~inputs opt);
  let loads cdfg = (Interp.run ~inputs cdfg).Interp.mem_reads in
  let total a = Array.fold_left ( + ) 0 a in
  Alcotest.(check bool) "load hoisted out of the loop" true
    (total (loads opt) < total (loads raw))

let test_loads_not_hoisted_past_stores () =
  let src = {|
int out[1];
int buf[4];
void main() {
  buf[0] = 1;
  int s = 0;
  int i;
  for (i = 0; i < 5; i = i + 1) {
    s = s + buf[0];
    buf[0] = buf[0] + 1;
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  (* 1+2+3+4+5 *)
  Alcotest.(check int) "store kills hoisting" 15 (out0 opt);
  Alcotest.(check int) "matches raw" (out0 raw) (out0 opt)

let test_nested_loops_hoist_through () =
  let src = {|
int out[1];
int in[1];
void main() {
  int k = in[0];
  int s = 0;
  int i;
  for (i = 0; i < 20; i = i + 1) {
    int j;
    for (j = 0; j < 20; j = j + 1) {
      s = s + (k * 1000) + (i * 10) + j;
    }
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  let inputs = [ ("in", [| 2 |]) ] in
  Alcotest.(check int) "value preserved" (out0 ~inputs raw) (out0 ~inputs opt);
  (* k*1000 must leave both loops, i*10 at least the inner one *)
  Alcotest.(check bool) "substantially fewer dynamic instructions" true
    (dyn_instrs ~inputs opt + 500 < dyn_instrs ~inputs raw)

let test_division_never_hoisted () =
  (* hoisting a division would trap on the zero-trip path *)
  let src = {|
int out[1];
int in[2];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < in[0]; i = i + 1) {
    s = s + 100 / in[1];
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  (* in[0] = 0 and in[1] = 0: loop never runs, must not trap *)
  let inputs = [ ("in", [| 0; 0 |]) ] in
  Alcotest.(check int) "no trap on zero-trip" 0 (out0 ~inputs opt);
  ignore raw

let test_guarded_load_not_speculated () =
  (* a load that only executes under a branch must stay behind its
     guard: hoisting it to the preheader would trap on iterations (or
     whole runs) where the branch is never taken — found by
     hypar fuzz --unsafe *)
  let src = {|
int out[1];
int table[4];
int in[2];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    if (in[0] > 5) {
      s = s + table[in[1]];
    }
    s = s + i;
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  (* guard false, index wildly out of bounds: the load never runs, so
     neither program may trap *)
  let inputs = [ ("in", [| 0; 999 |]) ] in
  Alcotest.(check int) "no trap when the guard is false" (out0 ~inputs raw)
    (out0 ~inputs opt);
  (* guard true and in bounds: semantics unchanged *)
  let inputs = [ ("in", [| 9; 2 |]) ] in
  Alcotest.(check int) "same result when the guard is taken"
    (out0 ~inputs raw) (out0 ~inputs opt)

let test_unconditional_load_still_hoisted () =
  (* the speculation fix must not cost the profitable case: a load in
     the straight-line loop body still moves to the preheader *)
  let src = {|
int out[1];
int table[4];
int in[1];
void main() {
  table[0] = in[0];
  int s = 0;
  int i;
  for (i = 0; i < 50; i = i + 1) {
    s = s + table[0] + ((i > 25) ? i : 0);
  }
  out[0] = s;
}
|} in
  let raw = compile_raw src in
  let opt = Ir.Passes.loop_invariant_motion raw in
  let inputs = [ ("in", [| 3 |]) ] in
  Alcotest.(check int) "sum preserved" (out0 ~inputs raw) (out0 ~inputs opt);
  let loads cdfg =
    Array.fold_left ( + ) 0 (Interp.run ~inputs cdfg).Interp.mem_reads
  in
  Alcotest.(check bool) "load still hoisted" true (loads opt < loads raw)

let test_random_structured_semantics () =
  for seed = 200 to 212 do
    let raw = compile_raw (Hypar_fuzzgen.Gen.source seed) in
    Outputs.check (Printf.sprintf "seed %d" seed) raw (Ir.Passes.optimize raw)
  done

let suite =
  [
    Alcotest.test_case "hoists invariant mul" `Quick test_hoists_invariant_mul;
    Alcotest.test_case "loop-carried not hoisted" `Quick test_loop_carried_not_hoisted;
    Alcotest.test_case "zero-trip safety" `Quick test_zero_trip_safety;
    Alcotest.test_case "loads hoisted" `Quick test_loads_hoisted_when_no_store;
    Alcotest.test_case "stores block hoisting" `Quick test_loads_not_hoisted_past_stores;
    Alcotest.test_case "nested loops" `Quick test_nested_loops_hoist_through;
    Alcotest.test_case "division never hoisted" `Quick test_division_never_hoisted;
    Alcotest.test_case "guarded load not speculated" `Quick
      test_guarded_load_not_speculated;
    Alcotest.test_case "unconditional load still hoisted" `Quick
      test_unconditional_load_still_hoisted;
    Alcotest.test_case "random structured programs" `Quick test_random_structured_semantics;
  ]
