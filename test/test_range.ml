(* Unit tests for the value-range (width) analysis. *)

module Ir = Hypar_ir
module Range = Hypar_analysis.Range
module Analyze = Hypar_analysis.Analyze
module Driver = Hypar_minic.Driver

let compile = Driver.compile_exn ~simplify:false

let overflow_risks cdfg =
  List.filter
    (fun (r : Range.report) -> not r.fits)
    (Analyze.register_ranges cdfg)

let report_for cdfg name_prefix =
  List.find_opt
    (fun (r : Range.report) ->
      String.length r.var.vname >= String.length name_prefix
      && String.sub r.var.vname 0 (String.length name_prefix) = name_prefix)
    (Analyze.register_ranges cdfg)

let test_constant_ranges () =
  let cdfg = compile {|
int out[1];
void main() {
  int a = 5;
  int b = a + 10;
  out[0] = b;
}
|} in
  match report_for cdfg "b" with
  | Some r ->
    Alcotest.(check int) "exact lo" 15 r.range.Range.lo;
    Alcotest.(check int) "exact hi" 15 r.range.Range.hi;
    Alcotest.(check bool) "fits int16" true r.fits
  | None -> Alcotest.fail "no report for b"

let test_input_arrays_assume_width () =
  let cdfg = compile {|
int out[1];
int in[4];
void main() {
  int x = in[0];
  out[0] = x;
}
|} in
  match report_for cdfg "x" with
  | Some r ->
    Alcotest.(check int) "width-derived lo" (-32768) r.range.Range.lo;
    Alcotest.(check int) "width-derived hi" 32767 r.range.Range.hi
  | None -> Alcotest.fail "no report for x"

let test_const_rom_exact () =
  let cdfg = compile {|
const int rom[3] = { -5, 10, 40 };
int out[1];
int in[1];
void main() {
  int x = rom[in[0] & 1];
  out[0] = x;
}
|} in
  match report_for cdfg "x" with
  | Some r ->
    Alcotest.(check int) "rom lo" (-5) r.range.Range.lo;
    Alcotest.(check int) "rom hi" 40 r.range.Range.hi
  | None -> Alcotest.fail "no report for x"

let test_overflow_flagged () =
  (* an int16 product of two full-width int16 inputs overflows *)
  let cdfg = compile {|
int out[1];
int in[2];
void main() {
  int a = in[0];
  int b = in[1];
  int16 p = a * b;
  out[0] = p;
}
|} in
  let risky = overflow_risks cdfg in
  Alcotest.(check bool) "product flagged" true
    (List.exists (fun (r : Range.report) -> r.var.vname.[0] = 'p') risky)

let test_clamped_values_fit () =
  (* explicit min/max clamping keeps the predictor inside int16 *)
  let cdfg = compile {|
int out[1];
int in[1];
void main() {
  int32 wide = in[0] * 4;
  int clamped = min(32767, max(0 - 32768, wide));
  out[0] = clamped;
}
|} in
  match report_for cdfg "clamped" with
  | Some r ->
    Alcotest.(check bool) "clamp proves the width" true r.fits;
    Alcotest.(check int) "hi bounded" 32767 r.range.Range.hi
  | None -> Alcotest.fail "no report for clamped"

let test_comparison_is_boolean () =
  let cdfg = compile {|
int out[1];
int in[2];
void main() {
  int c = in[0] < in[1];
  out[0] = c;
}
|} in
  match report_for cdfg "c" with
  | Some r ->
    Alcotest.(check int) "lo 0" 0 r.range.Range.lo;
    Alcotest.(check int) "hi 1" 1 r.range.Range.hi
  | None -> Alcotest.fail "no report for c"

let test_loop_accumulator_widens () =
  (* an unbounded-looking accumulator widens to top rather than looping
     forever, and is flagged against int16 *)
  let cdfg = compile {|
int out[1];
int in[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < in[0]; i++) {
    s = s + 1000;
  }
  out[0] = s;
}
|} in
  match report_for cdfg "s" with
  | Some r ->
    Alcotest.(check bool) "widened beyond int16" true (not r.fits)
  | None -> Alcotest.fail "no report for s"

let test_apps_declared_widths () =
  (* the ADPCM implementation clamps its predictor: its stored state fits *)
  let cdfg = (Hypar_apps.Adpcm.prepared ()).Hypar_core.Flow.cdfg in
  let reports = Analyze.register_ranges cdfg in
  Alcotest.(check bool) "analysis covers many registers" true
    (List.length reports > 20);
  (* abs/shift results of the interval machinery must stay ordered *)
  List.iter
    (fun (r : Range.report) ->
      if r.range.Range.lo > r.range.Range.hi then
        Alcotest.failf "inverted interval on %s" r.var.vname)
    reports

let test_width_range () =
  Alcotest.(check bool) "w1 is a 0/1 flag" true
    (Range.width_range 1 = { Range.lo = 0; hi = 1 });
  Alcotest.(check bool) "w8" true
    (Range.width_range 8 = { Range.lo = -128; hi = 127 });
  Alcotest.(check bool) "w16" true
    (Range.width_range 16 = { Range.lo = -32768; hi = 32767 })

let test_mul_saturates () =
  (* corner products of clamped operands reach 2^90: they must saturate
     at top's bounds, never wrap *)
  let iv = Alcotest.testable Range.pp_interval ( = ) in
  Alcotest.check iv "top * top" Range.top (Range.mul Range.top Range.top);
  Alcotest.check iv "2^45 << 40"
    { Range.lo = 0; hi = Range.top.Range.hi }
    (Range.eval_bin Hypar_ir.Types.Shl
       { Range.lo = 0; hi = 1 lsl 45 }
       (Range.const 40));
  Alcotest.check iv "3e9 * 3e9"
    (Range.const Range.top.Range.hi)
    (Range.mul (Range.const 3_000_000_000) (Range.const 3_000_000_000));
  Alcotest.check iv "-3e9 * 3e9"
    (Range.const Range.top.Range.lo)
    (Range.mul (Range.const (-3_000_000_000)) (Range.const 3_000_000_000));
  Alcotest.check iv "in-range products stay exact"
    { Range.lo = -600; hi = 800 }
    (Range.mul { Range.lo = -3; hi = 4 } { Range.lo = -150; hi = 200 })

let test_stores_widen_array_contents () =
  (* a store is not truncated to the element width: a register loaded
     back from the array must see the wide value *)
  let cdfg = compile {|
int16 out[1];
int16 in[1];
int16 buf[2];
void main() {
  int32 w = in[0] * 4096;
  buf[0] = w;
  int16 y = buf[0];
  out[0] = y;
}
|} in
  (match report_for cdfg "y" with
  | Some r ->
    Alcotest.(check int) "stored value reaches the load" (-32768 * 4096)
      r.range.Range.lo;
    Alcotest.(check bool) "y flagged" false r.fits
  | None -> Alcotest.fail "no report for y");
  (* contents that grow on every solve fall back to top's bounds *)
  let cdfg = compile {|
int16 out[1];
int16 buf[8];
void main() {
  int16 i = 1;
  while (i < 8) {
    buf[i] = buf[i - 1] * 2 + 1;
    i = i + 1;
  }
  int16 y = buf[7];
  out[0] = y;
}
|} in
  match report_for cdfg "y" with
  | Some r ->
    Alcotest.(check int) "growing contents widen" Range.top.Range.hi
      r.range.Range.hi;
    Alcotest.(check bool) "y flagged" false r.fits
  | None -> Alcotest.fail "no report for y"

let suite =
  [
    Alcotest.test_case "mul saturates" `Quick test_mul_saturates;
    Alcotest.test_case "constant ranges" `Quick test_constant_ranges;
    Alcotest.test_case "input arrays" `Quick test_input_arrays_assume_width;
    Alcotest.test_case "const ROM exact" `Quick test_const_rom_exact;
    Alcotest.test_case "overflow flagged" `Quick test_overflow_flagged;
    Alcotest.test_case "clamping proves widths" `Quick test_clamped_values_fit;
    Alcotest.test_case "comparisons boolean" `Quick test_comparison_is_boolean;
    Alcotest.test_case "loop accumulator widens" `Quick test_loop_accumulator_widens;
    Alcotest.test_case "apps analysed" `Quick test_apps_declared_widths;
    Alcotest.test_case "width_range" `Quick test_width_range;
    Alcotest.test_case "stores widen arrays" `Quick
      test_stores_widen_array_contents;
  ]

let test_counter_cap_precision () =
  (* bounded loop counters are inferred precisely, not widened *)
  let cdfg = compile {|
int y[64];
void main() {
  int i;
  for (i = 0; i < 56; i = i + 1) {
    y[i] = i;
  }
}
|} in
  match report_for cdfg "i" with
  | Some r ->
    Alcotest.(check int) "lo 0" 0 r.range.Range.lo;
    Alcotest.(check int) "hi 56 (post-increment)" 56 r.range.Range.hi;
    Alcotest.(check bool) "fits" true r.fits
  | None -> Alcotest.fail "no report for i"

let test_narrowing_recovers_derived_values () =
  (* i + t with both counters bounded: the sum must be tight even though
     the counters converge slowly *)
  let cdfg = compile {|
int y[64];
void main() {
  int i;
  for (i = 0; i < 56; i = i + 1) {
    int t;
    for (t = 0; t < 8; t = t + 1) {
      int sum = i + t;
      y[sum & 63] = sum;
    }
  }
}
|} in
  match report_for cdfg "sum" with
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "tight bound [%d,%d]" r.range.Range.lo r.range.Range.hi)
      true
      (r.range.Range.lo >= 0 && r.range.Range.hi <= 64)
  | None -> Alcotest.fail "no report for sum"

let test_genuine_accumulator_risk_still_flagged () =
  (* the classic MAC-into-int16 bug must not be silenced by the caps *)
  let cdfg = compile {|
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
|} in
  Alcotest.(check bool) "accumulator flagged" true
    (List.exists
       (fun (r : Range.report) -> r.var.vname.[0] = 's')
       (overflow_risks cdfg))

let precision_suite =
  [
    Alcotest.test_case "counter cap precision" `Quick test_counter_cap_precision;
    Alcotest.test_case "narrowing" `Quick test_narrowing_recovers_derived_values;
    Alcotest.test_case "real risks still flagged" `Quick test_genuine_accumulator_risk_still_flagged;
  ]

let suite = suite @ precision_suite
