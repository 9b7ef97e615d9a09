(* Unit tests for whole-program inlining. *)

module Ast = Hypar_minic.Ast
module Parser = Hypar_minic.Parser
module Typecheck = Hypar_minic.Typecheck
module Inline = Hypar_minic.Inline
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let typecheck prog =
  match Typecheck.check prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%d:%d: %s" e.pos.line e.pos.col e.msg

let inline_src src =
  let prog = Parser.parse_program src in
  typecheck prog;
  Inline.program prog

let run_out0 ?(inputs = []) src =
  let cdfg = Driver.compile_exn src in
  (Interp.array_exn (Interp.run ~inputs cdfg) "out").(0)

let test_scalar_call () =
  let v = run_out0 {|
int out[4];
int double_it(int x) { return x + x; }
void main() { out[0] = double_it(21); }
|} in
  Alcotest.(check int) "double(21)" 42 v

let test_nested_calls () =
  let v = run_out0 {|
int out[4];
int inc(int x) { return x + 1; }
int twice(int x) { return inc(inc(x)); }
void main() { out[0] = twice(inc(0)); }
|} in
  Alcotest.(check int) "three increments" 3 v

let test_call_in_expression () =
  let v = run_out0 {|
int out[4];
int sq(int x) { return x * x; }
void main() { out[0] = sq(3) + sq(4); }
|} in
  Alcotest.(check int) "9 + 16" 25 v

let test_array_parameter () =
  let v = run_out0 {|
int out[4];
int a[4];
int b[4];
void fill(int t[], int v) { t[0] = v; }
void main() {
  fill(a, 7);
  fill(b, 35);
  out[0] = a[0] + b[0];
}
|} in
  Alcotest.(check int) "array params substituted" 42 v

let test_void_call_statement () =
  let v = run_out0 {|
int out[4];
int acc;
void bump(int by) { acc = acc + by; }
void main() {
  acc = 0;
  bump(40);
  bump(2);
  out[0] = acc;
}
|} in
  Alcotest.(check int) "side effects accumulated" 42 v

let test_local_renaming () =
  (* the callee's local 'x' must not clobber the caller's 'x' *)
  let v = run_out0 {|
int out[4];
int f(int a) {
  int x = a * 10;
  return x;
}
void main() {
  int x = 2;
  int y = f(x);
  out[0] = x + y;
}
|} in
  Alcotest.(check int) "locals renamed apart" 22 v

let test_shadowing_in_main () =
  let v = run_out0 {|
int out[4];
void main() {
  int x = 1;
  if (x) {
    int y = 10;
    x = x + y;
  }
  int i;
  for (i = 0; i < 2; i = i + 1) {
    int y = 100;
    x = x + y;
  }
  out[0] = x;
}
|} in
  Alcotest.(check int) "sibling-scope locals renamed apart" 211 v

let test_call_inside_loop () =
  let v = run_out0 {|
int out[4];
int step(int s, int i) { return s + i * i; }
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 5; i = i + 1) {
    s = step(s, i);
  }
  out[0] = s;
}
|} in
  Alcotest.(check int) "sum of squares 0..4" 30 v

let test_recursion_rejected () =
  let src = {|
int out[4];
int f(int x) { return g(x); }
int g(int x) { return f(x); }
void main() { out[0] = f(1); }
|} in
  let prog = Parser.parse_program src in
  typecheck prog;
  match Inline.program prog with
  | exception Inline.Recursive name ->
    Alcotest.(check bool) "names a cycle member" true (name = "f" || name = "g")
  | _ -> Alcotest.fail "expected Recursive"

let test_only_main_remains () =
  let prog = inline_src {|
int out[4];
int f(int x) { return x; }
void main() { out[0] = f(1); }
|} in
  Alcotest.(check int) "single function" 1 (List.length prog.Ast.funcs);
  match prog.Ast.funcs with
  | [ f ] -> Alcotest.(check string) "it is main" "main" f.Ast.fname
  | _ -> Alcotest.fail "unexpected"

let suite =
  [
    Alcotest.test_case "scalar call" `Quick test_scalar_call;
    Alcotest.test_case "nested calls" `Quick test_nested_calls;
    Alcotest.test_case "call in expression" `Quick test_call_in_expression;
    Alcotest.test_case "array parameter" `Quick test_array_parameter;
    Alcotest.test_case "void call statement" `Quick test_void_call_statement;
    Alcotest.test_case "local renaming" `Quick test_local_renaming;
    Alcotest.test_case "shadowing in main" `Quick test_shadowing_in_main;
    Alcotest.test_case "call inside loop" `Quick test_call_inside_loop;
    Alcotest.test_case "recursion rejected" `Quick test_recursion_rejected;
    Alcotest.test_case "only main remains" `Quick test_only_main_remains;
  ]
