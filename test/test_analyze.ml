(* Unit tests for the IR diagnostics engine (hypar analyze, A001-A008). *)

module Ir = Hypar_ir
module Analyze = Hypar_analysis.Analyze
module Diagnostics = Hypar_analysis.Diagnostics

let code_id = Diagnostics.id Analyze.kind

let compile src =
  Hypar_minic.Driver.compile_exn ~name:"test.mc" ~simplify:false src

let codes findings = List.map (fun (f : Analyze.finding) -> f.Analyze.code) findings

let has code findings = List.mem code (codes findings)

let mk name id = { Ir.Instr.vname = name; vid = id; vwidth = 16 }

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

let test_codes_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (code_id c) true
        (Diagnostics.of_string Analyze.kind (code_id c) = Some c);
      Alcotest.(check bool) (Diagnostics.mnemonic Analyze.kind c) true
        (Diagnostics.of_string Analyze.kind (Diagnostics.mnemonic Analyze.kind c) = Some c);
      Alcotest.(check bool) "lower-case id" true
        (Diagnostics.of_string Analyze.kind (String.lowercase_ascii (code_id c))
        = Some c))
    (Diagnostics.all Analyze.kind);
  Alcotest.(check bool) "unknown code" true (Diagnostics.of_string Analyze.kind "A999" = None)

let test_use_before_def () =
  (* hand-built: the entry reads a register nothing defines *)
  let ghost = mk "ghost" 0 and x = mk "x" 1 in
  let entry =
    Ir.Block.make ~label:"entry"
      ~instrs:
        [ Ir.Instr.Bin { dst = x; op = Ir.Types.Add; a = Var ghost; b = Imm 1 } ]
      ~term:(Ir.Block.Return (Some (Var x)))
  in
  let cdfg = Ir.Cdfg.make ~name:"ghost" ~arrays:[] (Ir.Cfg.of_blocks [ entry ]) in
  let fs = Analyze.check cdfg in
  Alcotest.(check bool) "A001 reported" true (has Analyze.Use_before_def fs);
  let f = List.find (fun f -> f.Analyze.code = Analyze.Use_before_def) fs in
  Alcotest.(check int) "at block 0" 0 f.Analyze.block;
  Alcotest.(check int) "at instr 0" 0 f.Analyze.index

let test_frontend_code_has_no_a001 () =
  (* the frontend zero-initialises declarations at lowering, so A001 is
     an .ir-only hazard: even a one-arm assignment is definitely
     assigned *)
  let src =
    "int main() {\n\
    \  int y;\n\
    \  int c = 1;\n\
    \  if (c) { y = 3; }\n\
    \  return y;\n\
     }\n"
  in
  Alcotest.(check bool) "no A001 from compiled code" false
    (has Analyze.Use_before_def (Analyze.check (compile src)))

let test_dead_store_and_write_only () =
  let src =
    "int main() {\n\
    \  int x = 1;\n\
    \  int sink = 0;\n\
    \  x = 2;\n\
    \  sink = x;\n\
    \  return sink;\n\
     }\n"
  in
  let fs = Analyze.check (compile src) in
  Alcotest.(check bool) "A002 for the overwritten init" true
    (has Analyze.Dead_store fs)

let test_write_only () =
  let src =
    "int main() {\n\
    \  int unused = 41;\n\
    \  return 0;\n\
     }\n"
  in
  let fs = Analyze.check (compile src) in
  Alcotest.(check bool) "A008 reported" true
    (has Analyze.Write_only_variable fs)

let test_unreachable_and_constant_branch () =
  let src =
    "int main() {\n\
    \  int x = 5;\n\
    \  int r = 0;\n\
    \  if (x < 3) { r = 1; }\n\
    \  return r;\n\
     }\n"
  in
  let fs = Analyze.check (compile src) in
  Alcotest.(check bool) "A004 for the constant condition" true
    (has Analyze.Constant_branch fs)

let test_unreachable_block () =
  (* hand-built orphan block, unreachable from the entry *)
  let x = mk "x" 0 in
  let entry =
    Ir.Block.make ~label:"entry"
      ~instrs:[ Ir.Instr.Mov { dst = x; src = Imm 1 } ]
      ~term:(Ir.Block.Return (Some (Var x)))
  in
  let orphan =
    Ir.Block.make ~label:"orphan"
      ~instrs:[ Ir.Instr.Mov { dst = x; src = Imm 2 } ]
      ~term:(Ir.Block.Return None)
  in
  let cdfg =
    Ir.Cdfg.make ~name:"orphan" ~arrays:[]
      (Ir.Cfg.of_blocks [ entry; orphan ])
  in
  let fs = Analyze.check cdfg in
  Alcotest.(check bool) "A003 reported" true
    (has Analyze.Unreachable_block fs);
  let f = List.find (fun f -> f.Analyze.code = Analyze.Unreachable_block) fs in
  Alcotest.(check int) "the orphan block" 1 f.Analyze.block

let test_out_of_bounds () =
  let src =
    "int a[8];\n\
     int main() {\n\
    \  int i;\n\
    \  int s = 0;\n\
    \  for (i = 0; i < 16; i = i + 1) { s = s + a[i]; }\n\
    \  return s;\n\
     }\n"
  in
  let fs = Analyze.check (compile src) in
  Alcotest.(check bool) "A005 for the 16-trip walk of a[8]" true
    (has Analyze.Possible_out_of_bounds fs)

let test_in_bounds_is_clean () =
  let src =
    "int a[8];\n\
     int main() {\n\
    \  int i;\n\
    \  int s = 0;\n\
    \  for (i = 0; i < 8; i = i + 1) { s = s + a[i]; }\n\
    \  return s;\n\
     }\n"
  in
  let fs = Analyze.check (compile src) in
  Alcotest.(check bool) "no A005 when the guard proves the bound" false
    (has Analyze.Possible_out_of_bounds fs)

let test_div_by_zero () =
  (* d comes from a mutable array, so its interval is the full element
     width — which spans zero *)
  let src =
    "int a[4];\n\
     int main() {\n\
    \  int d = a[0];\n\
    \  return 10 / d;\n\
     }\n"
  in
  Alcotest.(check bool) "A006 reported" true
    (has Analyze.Possible_div_by_zero (Analyze.check (compile src)))

let test_div_by_nonzero_is_clean () =
  let src =
    "int main() {\n\
    \  int d = 4;\n\
    \  return 10 / d;\n\
     }\n"
  in
  Alcotest.(check bool) "no A006 for a constant nonzero divisor" false
    (has Analyze.Possible_div_by_zero (Analyze.check (compile src)))

let test_invariant_load () =
  let src =
    "int k[4];\n\
     int out[16];\n\
     int main() {\n\
    \  int i;\n\
    \  for (i = 0; i < 16; i = i + 1) { out[i] = k[0] + i; }\n\
    \  return 0;\n\
     }\n"
  in
  let fs = Analyze.check (compile src) in
  Alcotest.(check bool) "A007 for the k[0] load" true
    (has Analyze.Unhoisted_invariant_load fs)

let fir_src =
  "int x[64];\n\
   int h[8];\n\
   int y[64];\n\
   void main() {\n\
  \  int i;\n\
  \  for (i = 0; i < 56; i = i + 1) {\n\
  \    int s = 0;\n\
  \    int t;\n\
  \    for (t = 0; t < 8; t = t + 1) {\n\
  \      s = s + x[i + t] * h[t];\n\
  \    }\n\
  \    y[i] = s >> 6;\n\
  \  }\n\
   }\n"

let test_optimized_fir_is_clean () =
  (* the optimiser removes everything analyze flags on the FIR kernel —
     including proving all three array walks in bounds *)
  let cdfg =
    Hypar_minic.Driver.compile_exn ~name:"fir.mc" ~simplify:true fir_src
  in
  Alcotest.(check (list string)) "no findings after optimize" []
    (List.map (fun f -> f.Analyze.message) (Analyze.check cdfg))

let test_unoptimized_fir_findings () =
  let fs = Analyze.check (compile fir_src) in
  Alcotest.(check (list string)) "pre-tests and duplicated inits"
    [ "A004"; "A002"; "A004"; "A002" ]
    (List.map (fun f -> code_id f.Analyze.code) fs)

let test_findings_sorted_and_unique () =
  let src =
    "int main() {\n\
    \  int a = 1;\n\
    \  int b = 2;\n\
    \  a = 3;\n\
    \  b = 4;\n\
    \  return a + b;\n\
     }\n"
  in
  let fs = Analyze.check (compile src) in
  let keys =
    List.map
      (fun (f : Analyze.finding) ->
        (f.Analyze.block, f.Analyze.index, code_id f.Analyze.code))
      fs
  in
  Alcotest.(check bool) "sorted" true (List.sort compare keys = keys);
  Alcotest.(check int) "unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_render () =
  let f =
    {
      Analyze.code = Analyze.Use_before_def;
      block = 2;
      index = 1;
      message = "ghost#7 may be read";
    }
  in
  Alcotest.(check string) "text line"
    "x.ir:BB2.1: note A001 [use-before-def]: ghost#7 may be read\n"
    (Diagnostics.render Analyze.kind ~file:"x.ir" [ f ]);
  let t = { f with Analyze.index = -1 } in
  Alcotest.(check bool) "terminator position" true
    (contains (Diagnostics.render Analyze.kind ~file:"<ir>" [ t ]) "BB2.term")

let test_render_json () =
  let f =
    {
      Analyze.code = Analyze.Possible_div_by_zero;
      block = 0;
      index = 3;
      message = "divisor \"d\" may be zero";
    }
  in
  let json = Diagnostics.render_json Analyze.kind ~file:"p.mc" [ f ] in
  List.iter
    (fun affix -> Alcotest.(check bool) affix true (contains json affix))
    [
      "\"file\": \"p.mc\"";
      "\"count\": 1";
      "\"code\": \"A006\"";
      "\"name\": \"possible-div-by-zero\"";
      "\\\"d\\\"";
    ]

let suite =
  [
    Alcotest.test_case "codes round-trip" `Quick test_codes_roundtrip;
    Alcotest.test_case "A001: ghost read" `Quick test_use_before_def;
    Alcotest.test_case "A001: frontend code is definitely assigned" `Quick
      test_frontend_code_has_no_a001;
    Alcotest.test_case "A002: overwritten init" `Quick
      test_dead_store_and_write_only;
    Alcotest.test_case "A008: write-only variable" `Quick test_write_only;
    Alcotest.test_case "A004: constant condition" `Quick
      test_unreachable_and_constant_branch;
    Alcotest.test_case "A003: orphan block" `Quick test_unreachable_block;
    Alcotest.test_case "A005: 16-trip walk of a[8]" `Quick test_out_of_bounds;
    Alcotest.test_case "A005: guarded walk is clean" `Quick
      test_in_bounds_is_clean;
    Alcotest.test_case "A006: zero-spanning divisor" `Quick test_div_by_zero;
    Alcotest.test_case "A006: constant nonzero divisor is clean" `Quick
      test_div_by_nonzero_is_clean;
    Alcotest.test_case "A007: invariant load" `Quick test_invariant_load;
    Alcotest.test_case "optimized FIR is clean" `Quick
      test_optimized_fir_is_clean;
    Alcotest.test_case "unoptimized FIR findings" `Quick
      test_unoptimized_fir_findings;
    Alcotest.test_case "findings sorted and unique" `Quick
      test_findings_sorted_and_unique;
    Alcotest.test_case "render: text positions" `Quick test_render;
    Alcotest.test_case "render: JSON escaping" `Quick test_render_json;
  ]
