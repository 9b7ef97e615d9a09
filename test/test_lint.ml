(* Unit tests for the Mini-C source linter. *)

module Lint = Hypar_analysis.Lint
module Diagnostics = Hypar_analysis.Diagnostics

let code_id = Diagnostics.id Lint.kind

let full src =
  match Lint.check src with
  | Ok ds -> ds
  | Error msg -> Alcotest.failf "lint refused to parse: %s" msg

let full_codes src =
  List.map (fun (d : Lint.diagnostic) -> code_id d.code) (full src)

let has code codes = List.mem code codes

let check_fires code msg src =
  Alcotest.(check bool) (msg ^ ": " ^ code ^ " fires") true
    (has code (full_codes src))

let check_silent code msg src =
  Alcotest.(check bool) (msg ^ ": " ^ code ^ " silent") false
    (has code (full_codes src))

(* --- W001 unused-variable ------------------------------------------------- *)

let test_unused_variable () =
  check_fires "W001" "never-read local" {|
int out[1];
void main() {
  int dead = 3;
  out[0] = 1;
}
|};
  check_silent "W001" "read local" {|
int out[1];
void main() {
  int live = 3;
  out[0] = live;
}
|}

(* --- W002 unused-parameter ------------------------------------------------ *)

let test_unused_parameter () =
  check_fires "W002" "ignored scalar param" {|
int out[1];
int f(int a, int b) {
  return a + 1;
}
void main() {
  out[0] = f(1, 2);
}
|};
  check_silent "W002" "both params read" {|
int out[1];
int f(int a, int b) {
  return a + b;
}
void main() {
  out[0] = f(1, 2);
}
|}

(* --- W003 dead-assignment ------------------------------------------------- *)

let test_dead_assignment () =
  check_fires "W003" "overwritten before read" {|
int out[1];
void main() {
  int x;
  x = 5;
  x = 6;
  out[0] = x;
}
|};
  check_silent "W003" "read between writes" {|
int out[1];
void main() {
  int x;
  x = 5;
  out[0] = x;
  x = 6;
  out[0] = x;
}
|}

let test_dead_assignment_at_function_end () =
  check_fires "W003" "value dies with the function" {|
int out[1];
void main() {
  int x;
  out[0] = 1;
  x = 9;
}
|}

let test_dead_assignment_branch_conservative () =
  (* the branch may or may not read x: stay silent *)
  check_silent "W003" "possibly-read across a branch" {|
int out[1];
int in[1];
void main() {
  int x;
  x = 5;
  if (in[0]) {
    out[0] = x;
  }
  x = 6;
  out[0] = x;
}
|}

(* --- W004 unreachable-code ------------------------------------------------ *)

let test_unreachable_after_return () =
  (* never typechecks (trailing-return rule) but must still lint *)
  Alcotest.(check bool) "code after return" true
    (has "W004"
       (full_codes {|
int f() {
  return 1;
  int x = 2;
}
|}))

let test_unreachable_const_false_branch () =
  check_fires "W004" "if(0) body" {|
int out[1];
void main() {
  if (0) {
    out[0] = 1;
  }
  out[0] = 2;
}
|};
  check_silent "W004" "live branch" {|
int out[1];
int in[1];
void main() {
  if (in[0]) {
    out[0] = 1;
  }
  out[0] = 2;
}
|}

let test_unreachable_after_infinite_loop () =
  (* Mini-C has no break: while(1) never exits *)
  Alcotest.(check bool) "code after while(1)" true
    (has "W004"
       (full_codes {|
void f() {
  while (1) {
    int x = 1;
  }
  int y = 2;
}
|}))

(* --- W005 constant-condition ---------------------------------------------- *)

let test_constant_condition () =
  check_fires "W005" "folded comparison" {|
int out[1];
void main() {
  if (2 > 1) {
    out[0] = 1;
  }
}
|};
  check_silent "W005" "data-dependent condition" {|
int out[1];
int in[1];
void main() {
  if (in[0] > 1) {
    out[0] = 1;
  }
}
|};
  (* the IR clamps a shift amount to 62, so the profiled program always
     takes this branch *)
  check_fires "W005" "shift past the word" {|
int out[1];
void main() {
  if (1 << 70) {
    out[0] = 1;
  }
}
|}

let test_constant_ternary_condition () =
  check_fires "W005" "constant ternary" {|
int out[1];
void main() {
  out[0] = 1 ? 2 : 3;
}
|}

(* --- W006 possible-div-by-zero -------------------------------------------- *)

let test_div_by_zero () =
  check_fires "W006" "divisor range includes 0" {|
int out[1];
int in[1];
void main() {
  int d = in[0] & 7;
  out[0] = in[0] / d;
}
|};
  check_silent "W006" "divisor provably nonzero" {|
int out[1];
int in[1];
void main() {
  int d = (in[0] & 7) + 1;
  out[0] = in[0] / d;
}
|}

(* --- W007 shift-out-of-range ---------------------------------------------- *)

let test_shift_out_of_range () =
  check_fires "W007" "shift by 40" {|
int out[1];
int in[1];
void main() {
  out[0] = in[0] << 40;
}
|};
  check_silent "W007" "shift by 3" {|
int out[1];
int in[1];
void main() {
  out[0] = in[0] << 3;
}
|}

(* --- W008 width-overflow -------------------------------------------------- *)

let test_width_overflow () =
  check_fires "W008" "int16 MAC accumulator" {|
int out[1];
int x[8];
void main() {
  int16 s = 0;
  int i;
  for (i = 0; i < 8; i = i + 1) {
    s = s + x[i] * x[i];
  }
  out[0] = s;
}
|};
  check_silent "W008" "small constants fit" {|
int out[1];
void main() {
  int a = 5;
  out[0] = a + 2;
}
|}

(* --- W009 induction-write ------------------------------------------------- *)

let test_induction_write () =
  check_fires "W009" "body writes the counter" {|
int out[8];
void main() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    out[i] = i;
    i = i + 1;
  }
}
|};
  check_silent "W009" "body leaves the counter alone" {|
int out[8];
void main() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    out[i] = i;
  }
}
|}

(* --- diagnostics carry positions, rendering, code names -------------------- *)

let test_positions () =
  match
    full {|
int out[1];
void main() {
  int dead;
  out[0] = 1;
}
|}
  with
  | [ d ] ->
    Alcotest.(check string) "code" "W001" (code_id d.code);
    Alcotest.(check int) "line" 4 d.line;
    Alcotest.(check bool) "column set" true (d.col > 0)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_render () =
  let ds = full {|
int out[1];
void main() {
  int dead;
  out[0] = 1;
}
|} in
  let text = Diagnostics.render Lint.kind ~file:"t.mc" ds in
  Alcotest.(check bool) "text format" true
    (contains "t.mc:4:" text && contains "warning W001 [unused-variable]" text);
  let json = Diagnostics.render_json Lint.kind ~file:"t.mc" ds in
  Alcotest.(check bool) "json format" true
    (contains {|"count": 1|} json && contains {|"code": "W001"|} json)

let test_code_names () =
  Alcotest.(check int) "nine codes" 9 (List.length (Diagnostics.all Lint.kind));
  List.iter
    (fun c ->
      Alcotest.(check bool)
        ("id resolves: " ^ code_id c)
        true
        (Diagnostics.of_string Lint.kind (code_id c) = Some c);
      Alcotest.(check bool)
        ("mnemonic resolves: " ^ Diagnostics.mnemonic Lint.kind c)
        true
        (Diagnostics.of_string Lint.kind (Diagnostics.mnemonic Lint.kind c) = Some c))
    (Diagnostics.all Lint.kind);
  Alcotest.(check bool) "case-insensitive" true
    (Diagnostics.of_string Lint.kind "w003" = Some Lint.Dead_assignment);
  Alcotest.(check bool) "unknown rejected" true
    (Diagnostics.of_string Lint.kind "W999" = None)

let test_parse_error_is_error () =
  match Lint.check "int main( {" with
  | Error msg -> Alcotest.(check bool) "position in message" true (contains ":" msg)
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_clean_program_is_clean () =
  Alcotest.(check (list string)) "no diagnostics" []
    (full_codes {|
int out[4];
int in[4];
void main() {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    out[i] = in[i] * 2;
  }
}
|})

let suite =
  [
    Alcotest.test_case "W001 unused variable" `Quick test_unused_variable;
    Alcotest.test_case "W002 unused parameter" `Quick test_unused_parameter;
    Alcotest.test_case "W003 dead assignment" `Quick test_dead_assignment;
    Alcotest.test_case "W003 at function end" `Quick test_dead_assignment_at_function_end;
    Alcotest.test_case "W003 branch conservative" `Quick test_dead_assignment_branch_conservative;
    Alcotest.test_case "W004 after return" `Quick test_unreachable_after_return;
    Alcotest.test_case "W004 const-false branch" `Quick test_unreachable_const_false_branch;
    Alcotest.test_case "W004 after infinite loop" `Quick test_unreachable_after_infinite_loop;
    Alcotest.test_case "W005 constant condition" `Quick test_constant_condition;
    Alcotest.test_case "W005 constant ternary" `Quick test_constant_ternary_condition;
    Alcotest.test_case "W006 div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "W007 shift range" `Quick test_shift_out_of_range;
    Alcotest.test_case "W008 width overflow" `Quick test_width_overflow;
    Alcotest.test_case "W009 induction write" `Quick test_induction_write;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "render text and json" `Quick test_render;
    Alcotest.test_case "code names" `Quick test_code_names;
    Alcotest.test_case "parse errors" `Quick test_parse_error_is_error;
    Alcotest.test_case "clean program" `Quick test_clean_program_is_clean;
  ]
