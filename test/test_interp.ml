(* Unit tests for the CDFG interpreter: semantics, inputs, runtime errors,
   fuel, counters and edge profiling. *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let compile = Driver.compile_exn

let test_inputs_preloaded () =
  let cdfg = compile {|
int in[4];
int out[4];
void main() { out[0] = in[0] * in[1]; }
|} in
  let r = Interp.run ~inputs:[ ("in", [| 6; 7 |]) ] cdfg in
  Alcotest.(check int) "6*7" 42 (Interp.array_exn r "out").(0)

let test_partial_input_fills_prefix () =
  let cdfg = compile {|
int in[4];
int out[4];
void main() { out[0] = in[0] + in[3]; }
|} in
  let r = Interp.run ~inputs:[ ("in", [| 5 |]) ] cdfg in
  Alcotest.(check int) "rest is zero" 5 (Interp.array_exn r "out").(0)

let test_return_value () =
  let cdfg = compile "int main() { return 42; }" in
  let r = Interp.run cdfg in
  Alcotest.(check (option int)) "return" (Some 42) r.Interp.return_value

let test_out_of_bounds () =
  let cdfg = compile {|
int t[4];
void main() { t[4] = 1; }
|} in
  match Interp.run cdfg with
  | exception Interp.Runtime_error msg ->
    Alcotest.(check bool) "mentions bounds" true (Str_contains.contains msg "bounds")
  | _ -> Alcotest.fail "expected out-of-bounds error"

let test_negative_index () =
  let cdfg = compile {|
int t[4];
int in[1];
void main() { t[in[0] - 1] = 1; }
|} in
  match Interp.run cdfg with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected error on index -1"

let test_division_by_zero () =
  let cdfg = compile {|
int out[1];
int in[1];
void main() { out[0] = 10 / in[0]; }
|} in
  match Interp.run cdfg with
  | exception Interp.Runtime_error msg ->
    Alcotest.(check bool) "mentions division" true (Str_contains.contains msg "division")
  | _ -> Alcotest.fail "expected division error"

let test_fuel_exhaustion () =
  let cdfg = compile {|
int out[1];
void main() {
  int i = 0;
  while (i < 1000000) { i = i + 1; }
  out[0] = i;
}
|} in
  match Interp.run ~max_steps:1000 cdfg with
  | exception Interp.Fuel_exhausted { steps } ->
    Alcotest.(check int) "steps executed" 1000 steps
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_counters () =
  let cdfg = compile {|
int t[8];
void main() {
  int i;
  for (i = 0; i < 8; i = i + 1) { t[i] = t[7 - i] + 1; }
}
|} in
  let r = Interp.run cdfg in
  let total_reads = Array.fold_left ( + ) 0 r.Interp.mem_reads in
  let total_writes = Array.fold_left ( + ) 0 r.Interp.mem_writes in
  Alcotest.(check int) "8 loads" 8 total_reads;
  Alcotest.(check int) "8 stores" 8 total_writes;
  Alcotest.(check bool) "instrs counted" true (r.Interp.instrs_executed > 0)

let test_exec_freq () =
  let cdfg = compile {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 37; i = i + 1) { s = s + i; }
  out[0] = s;
}
|} in
  let r = Interp.run cdfg in
  Alcotest.(check bool) "some block ran exactly 37 times" true
    (Array.exists (fun f -> f = 37) r.Interp.exec_freq)

let test_edge_freq () =
  let cdfg = compile {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) { s = s + 1; }
  out[0] = s;
}
|} in
  let r = Interp.run cdfg in
  (* the rotated body's self-edge is traversed 9 times *)
  let self_edges =
    List.filter (fun (((a, b), _) : (int * int) * int) -> a = b) r.Interp.edge_freq
  in
  match self_edges with
  | [ (_, count) ] -> Alcotest.(check int) "9 back-edge traversals" 9 count
  | _ -> Alcotest.fail "expected exactly one self edge"

let test_edge_freq_consistency () =
  (* sum of incoming edge counts = block frequency (except the entry) *)
  let prepared = Hypar_apps.Ofdm.prepared () in
  let r = prepared.Hypar_core.Flow.interp in
  let cdfg = prepared.Hypar_core.Flow.cdfg in
  let incoming = Array.make (Ir.Cdfg.block_count cdfg) 0 in
  List.iter
    (fun (((_, dst), c) : (int * int) * int) -> incoming.(dst) <- incoming.(dst) + c)
    r.Interp.edge_freq;
  Array.iteri
    (fun i freq ->
      let expected = if i = Ir.Cfg.entry (Ir.Cdfg.cfg cdfg) then freq - 1 else freq in
      if incoming.(i) <> expected then
        Alcotest.failf "block %d: incoming %d <> freq %d" i incoming.(i) freq)
    r.Interp.exec_freq

let test_const_array_integrity () =
  let cdfg = compile {|
const int rom[2] = { 7, 8 };
int out[1];
void main() { out[0] = rom[0]; }
|} in
  match Interp.run ~inputs:[ ("rom", [| 1; 2 |]) ] cdfg with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected rejection of const-array input"

let suite =
  [
    Alcotest.test_case "inputs preloaded" `Quick test_inputs_preloaded;
    Alcotest.test_case "partial input" `Quick test_partial_input_fills_prefix;
    Alcotest.test_case "return value" `Quick test_return_value;
    Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
    Alcotest.test_case "negative index" `Quick test_negative_index;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "memory counters" `Quick test_counters;
    Alcotest.test_case "execution frequencies" `Quick test_exec_freq;
    Alcotest.test_case "edge frequencies" `Quick test_edge_freq;
    Alcotest.test_case "edge/block consistency" `Quick test_edge_freq_consistency;
    Alcotest.test_case "const arrays protected" `Quick test_const_array_integrity;
  ]
