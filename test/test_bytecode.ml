(* Unit tests for the bytecode frontend: the .hbc parser, CFG recovery
   (leaders, back edges, unreachable code, typed rejections), the
   stack-to-register lowering and the Mini-C -> bytecode emitter. *)

module Ir = Hypar_ir
module B = Hypar_bytecode
module Interp = Hypar_profiling.Interp

let compile ?(optimize = false) src =
  match B.Driver.compile ~name:"t.hbc" ~optimize ~verify_ir:true src with
  | Ok cdfg -> cdfg
  | Error e -> Alcotest.failf "unexpected reject: %s" (Hypar_ir.Frontend.string_of_error e)

let error src =
  match B.Driver.compile ~name:"t.hbc" src with
  | Ok _ -> Alcotest.fail "expected a frontend error"
  | Error e -> e

let returns src = (Interp.run (compile src)).Interp.return_value

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_returns what src expected =
  Alcotest.(check (option int)) what (Some expected) (returns src)

(* --- parser -------------------------------------------------------------- *)

let roundtrip_src =
  {|.array buf 8 16
.const rom 4 8 = 7 8 9 10
.local i 8
.local acc 32
entry:
  push 0
  store i       ; comment after an instruction
loop:
  load i
  aload rom
  load acc
  add
  store acc
# a full-line comment
  load i
  push 1
  add
  dup
  store i
  push 4
  lt
  brt loop
  load acc
  push 0
  push 1
  select
  pop
  swap
  astore buf
  load acc
  neg
  abs
  retv
|}

let test_parser_roundtrip () =
  match B.Parse.program ~name:"rt" roundtrip_src with
  | Error e -> Alcotest.failf "parse failed: %s" (Hypar_ir.Frontend.string_of_error e)
  | Ok prog -> (
    let printed = B.Prog.to_string prog in
    match B.Parse.program ~name:"rt" printed with
    | Error e -> Alcotest.failf "reparse failed: %s" (Hypar_ir.Frontend.string_of_error e)
    | Ok again ->
      Alcotest.(check string) "print/parse round-trip" printed (B.Prog.to_string again))

let test_parser_positions () =
  let e = error "  push 1\n  bogus 3\n  ret\n" in
  Alcotest.(check int) "line" 2 e.B.Driver.line;
  Alcotest.(check int) "col" 3 e.B.Driver.col;
  Alcotest.(check bool) "mentions mnemonic" true
    (contains ~needle:"bogus" e.B.Driver.msg)

let test_parser_rejects () =
  let cases =
    [
      ("duplicate decl", ".local x 8\n.local x 8\n  ret\n", "duplicate");
      ("bad directive", ".globl x\n  ret\n", "unknown directive");
      ("trailing token", "  push 1 2\n  ret\n", "trailing");
      ("bad width", ".local x 99\n  ret\n", "width");
      ("too many inits", ".array a 2 8 = 1 2 3\n  ret\n", "initialisers");
      ("label not alone", "x: push 1\n  ret\n", "alone");
    ]
  in
  List.iter
    (fun (what, src, needle) ->
      let e = error src in
      Alcotest.(check bool)
        (what ^ ": " ^ e.B.Driver.msg)
        true
        (contains ~needle e.B.Driver.msg))
    cases

(* --- straight-line semantics --------------------------------------------- *)

let test_arith () =
  check_returns "add/mul" "  push 2\n  push 3\n  add\n  push 4\n  mul\n  retv\n" 20;
  check_returns "dup" "  push 6\n  dup\n  mul\n  retv\n" 36;
  check_returns "swap/sub" "  push 3\n  push 10\n  swap\n  sub\n  retv\n" 7;
  check_returns "pop" "  push 1\n  push 2\n  pop\n  retv\n" 1;
  check_returns "select false" "  push 0\n  push 11\n  push 22\n  select\n  retv\n" 22;
  check_returns "select true" "  push 9\n  push 11\n  push 22\n  select\n  retv\n" 11;
  check_returns "neg" "  push 5\n  neg\n  retv\n" (-5);
  check_returns "div" "  push 17\n  push 5\n  div\n  retv\n" 3

let test_locals_and_arrays () =
  check_returns "locals are zero at entry" ".local x 16\n  load x\n  retv\n" 0;
  check_returns "store/load"
    ".local x 16\n  push 41\n  store x\n  load x\n  push 1\n  add\n  retv\n" 42;
  check_returns "rom"
    ".const rom 4 8 = 7 8 9 10\n  push 2\n  aload rom\n  retv\n" 9;
  check_returns "array write then read"
    ".array a 4 16\n  push 1\n  push 33\n  astore a\n  push 1\n  aload a\n  retv\n"
    33

(* --- control flow recovery ----------------------------------------------- *)

let loop_src =
  ".local i 8\n\
   \  push 0\n\
   \  store i\n\
   loop:\n\
   \  load i\n\
   \  push 1\n\
   \  add\n\
   \  store i\n\
   \  load i\n\
   \  push 10\n\
   \  lt\n\
   \  brt loop\n\
   \  load i\n\
   \  retv\n"

let test_back_edge_loop () =
  let cdfg = compile loop_src in
  let depth_of label =
    let found = ref None in
    Array.iter
      (fun (info : Ir.Cdfg.block_info) ->
        if info.block.Ir.Block.label = label then found := Some info.loop_depth)
      (Ir.Cdfg.infos cdfg);
    match !found with
    | Some d -> d
    | None -> Alcotest.failf "no block labelled %s" label
  in
  Alcotest.(check int) "loop body depth" 1 (depth_of "loop");
  Alcotest.(check (option int)) "counts to 10" (Some 10) (returns loop_src);
  let back = Ir.Cfg.back_edges (Ir.Cdfg.cfg cdfg) in
  Alcotest.(check int) "one back edge" 1 (List.length back)

let test_spill_across_blocks () =
  (* values live on the operand stack across block boundaries go through
     the canonical stk_<i> registers *)
  check_returns "stack value crosses a jump"
    "  push 3\n  push 5\n  jmp next\nnext:\n  swap\n  sub\n  retv\n" 2;
  (* the loop swaps the pair every iteration: the block-exit spill is a
     genuine parallel move (stk_0 and stk_1 exchange) *)
  check_returns "swapped pair across a back edge"
    ".local i 8\n\
     \  push 3\n\
     \  store i\n\
     \  push 100\n\
     \  push 1\n\
     loop:\n\
     \  swap\n\
     \  load i\n\
     \  push 1\n\
     \  sub\n\
     \  store i\n\
     \  load i\n\
     \  brt loop\n\
     \  pop\n\
     \  retv\n"
    1

let test_entry_back_edge () =
  (* a branch back to instruction 0: the local zero-init must not sit in
     the loop body, or the counter is re-zeroed every iteration and the
     loop never terminates *)
  let src =
    ".local i 8\n\
     top:\n\
     \  load i\n\
     \  push 1\n\
     \  add\n\
     \  store i\n\
     \  load i\n\
     \  push 10\n\
     \  lt\n\
     \  brt top\n\
     \  load i\n\
     \  retv\n"
  in
  let cdfg = compile src in
  (* the init lives in a synthetic entry block that jumps to "top" *)
  let entry =
    (Ir.Cfg.blocks (Ir.Cdfg.cfg cdfg)).(Ir.Cfg.entry (Ir.Cdfg.cfg cdfg))
  in
  Alcotest.(check bool)
    "synthetic entry is not the branch target" true
    (entry.Ir.Block.label <> "top");
  (match entry.Ir.Block.term with
  | Ir.Block.Jump "top" -> ()
  | _ -> Alcotest.fail "entry block should jump to \"top\"");
  Alcotest.(check (option int)) "counts to 10" (Some 10) (returns src);
  Alcotest.(check (option int))
    "counts to 10 optimised" (Some 10)
    (Interp.run (compile ~optimize:true src)).Interp.return_value

let test_stk_register_widths () =
  (* a 64-bit value live on the stack across a block edge must not be
     narrowed by the stk_<j> register that carries it *)
  let src = ".local x 64\n  load x\n  jmp next\nnext:\n  retv\n" in
  let cdfg = compile src in
  let width = ref 0 in
  Array.iter
    (fun (info : Ir.Cdfg.block_info) ->
      List.iter
        (fun instr ->
          List.iter
            (fun (v : Ir.Instr.var) ->
              if v.vname = "stk_0" && v.vwidth > !width then width := v.vwidth)
            (Option.to_list (Ir.Instr.def instr) @ Ir.Instr.used_vars instr))
        info.block.Ir.Block.instrs)
    (Ir.Cdfg.infos cdfg);
  Alcotest.(check int) "stk_0 carries the full 64 bits" 64 !width

let test_unreachable_code () =
  let src = "  push 1\n  retv\ndead:\n  push 2\n  retv\n" in
  let raw = compile src in
  Alcotest.(check int) "dead block kept raw" 2 (Ir.Cdfg.block_count raw);
  let opt = compile ~optimize:true src in
  Alcotest.(check int) "dead block optimised away" 1 (Ir.Cdfg.block_count opt);
  Alcotest.(check (option int)) "still returns 1" (Some 1)
    (Interp.run opt).Interp.return_value

let test_unreachable_underflow () =
  (* dead code is lowered under an assumed empty stack; a pop there must
     be padded, not rejected — the program is valid, the pop never runs *)
  let src = "  push 1\n  retv\ndead:\n  pop\n  push 2\n  retv\n" in
  let raw = compile src in
  Alcotest.(check int) "dead block kept raw" 2 (Ir.Cdfg.block_count raw);
  Alcotest.(check (option int)) "still returns 1" (Some 1) (returns src);
  let opt = compile ~optimize:true src in
  Alcotest.(check int) "dead block optimised away" 1 (Ir.Cdfg.block_count opt)

let check_reject what src line needle =
  let e = error src in
  Alcotest.(check int) (what ^ ": line") line e.B.Driver.line;
  Alcotest.(check bool)
    (what ^ ": message " ^ e.B.Driver.msg)
    true
    (contains ~needle e.B.Driver.msg)

let test_recovery_rejects () =
  check_reject "bad jump target" "  push 1\n  brt nowhere\n  ret\n" 2 "nowhere";
  check_reject "duplicate label" "a:\n  push 1\n  pop\na:\n  ret\n" 4 "duplicate";
  check_reject "label past end" "  ret\nend:\n" 2 "past the last";
  check_reject "fallthrough off end" "  push 1\n  pop\n" 2 "falls through";
  check_reject "fallthrough off end via brt" "start:\n  push 1\n  brt start\n" 3
    "falls through";
  check_reject "empty program" "; only a comment\n" 1 "empty";
  check_reject "stack underflow" "  push 1\n  add\n  ret\n" 2 "underflow";
  check_reject "retv underflow" "  retv\n" 1 "underflow";
  check_reject "unknown local" "  push 1\n  store x\n  ret\n" 2 "undeclared local";
  check_reject "unknown array" "  push 0\n  aload a\n  ret\n" 2 "undeclared array";
  check_reject "const store"
    ".const rom 2 8 = 1 2\n  push 0\n  push 1\n  astore rom\n  ret\n" 4 "const"

let test_stack_mismatch_at_join () =
  let src =
    "  push 1\n\
     \  brt a\n\
     \  push 2\n\
     \  jmp join\n\
     a:\n\
     \  jmp join\n\
     join:\n\
     \  ret\n"
  in
  let e = error src in
  Alcotest.(check bool)
    ("mismatch: " ^ e.B.Driver.msg)
    true
    (contains ~needle:"mismatch" e.B.Driver.msg);
  Alcotest.(check bool)
    "names the join label" true
    (contains ~needle:"join" e.B.Driver.msg)

let test_stack_overflow () =
  let pushes = List.init 1025 (* one past the stack limit *) (fun _ -> "  push 1") in
  let src = String.concat "\n" (pushes @ [ "  ret"; "" ]) in
  let e = error src in
  Alcotest.(check bool)
    ("overflow: " ^ e.B.Driver.msg)
    true
    (contains ~needle:"exceeds" e.B.Driver.msg)

(* --- the Mini-C -> bytecode emitter -------------------------------------- *)

let minic_src =
  {|
int out[2];
const int coef[4] = { 3, -1, 4, 1 };
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 4; i++) {
    s += coef[i] * i;
  }
  out[0] = s;
  out[1] = s > 0 ? s : 0 - s;
  return s;
}
|}

let test_emit_roundtrip () =
  let direct = Hypar_minic.Driver.compile_exn ~name:"emit" ~simplify:false minic_src in
  let hbc = B.Emit.to_string direct in
  (* the emitted text parses back to the exact same program *)
  (match B.Parse.program ~name:"emit" hbc with
  | Error e -> Alcotest.failf "emitted text unparseable: %s" (Hypar_ir.Frontend.string_of_error e)
  | Ok prog ->
    Alcotest.(check string) "emit/parse round-trip" hbc (B.Prog.to_string prog));
  let recovered = B.Driver.compile_exn ~name:"emit" ~verify_ir:true hbc in
  let r_direct = Interp.run direct and r_bc = Interp.run recovered in
  Alcotest.(check (option int))
    "same return value" r_direct.Interp.return_value r_bc.Interp.return_value;
  List.iter
    (fun (arr, contents) ->
      Alcotest.(check (array int))
        ("array " ^ arr) contents
        (Interp.array_exn r_bc arr))
    r_direct.Interp.arrays

let test_emit_optimized_parity () =
  (* after -O the decompiled CDFG shrinks back to the direct frontend's
     size (checked on the four applications below) *)
  let direct =
    Hypar_minic.Driver.compile_exn ~name:"parity" ~simplify:true minic_src
  in
  let raw = Hypar_minic.Driver.compile_exn ~name:"parity" ~simplify:false minic_src in
  let recovered =
    B.Driver.compile_exn ~name:"parity" ~optimize:true ~verify_ir:true
      (B.Emit.to_string raw)
  in
  let direct_n = Ir.Cdfg.total_instrs direct in
  let bc_n = Ir.Cdfg.total_instrs recovered in
  Alcotest.(check bool)
    (Printf.sprintf "within 10%% (direct %d, decompiled %d)" direct_n bc_n)
    true
    (10 * abs (bc_n - direct_n) <= direct_n)

(* The same parity on the four applications: each is emitted as bytecode,
   recovered, and both paths optimised; the interpreter must observe the
   same return value and final arrays, and the instruction counts must
   stay within 10%. *)
let test_apps_decompiled_parity (name, src, inputs) () =
  let raw = Hypar_minic.Driver.compile_exn ~name ~simplify:false src in
  let direct = Ir.Passes.optimize raw in
  let decompiled =
    B.Driver.compile_exn ~name ~verify_ir:true (B.Emit.to_string raw)
  in
  let observed cdfg =
    let r = Interp.run ~inputs cdfg in
    (r.Interp.return_value, List.sort compare r.Interp.arrays)
  in
  Alcotest.(check bool) "interpreter results match" true
    (observed direct = observed decompiled);
  let direct_n = Ir.Cdfg.total_instrs direct in
  let bc_n = Ir.Cdfg.total_instrs decompiled in
  Alcotest.(check bool)
    (Printf.sprintf "within 10%% (direct %d, decompiled %d)" direct_n bc_n)
    true
    (10 * abs (bc_n - direct_n) <= direct_n)

let test_driver_exn () =
  match B.Driver.compile_exn ~name:"bad.hbc" "  nonsense\n" with
  | exception B.Driver.Frontend_error { name; err } ->
    Alcotest.(check (option string)) "carries name" (Some "bad.hbc") name;
    Alcotest.(check int) "line" 1 err.B.Driver.line
  | _ -> Alcotest.fail "expected Frontend_error"

let suite =
  [
    Alcotest.test_case "parser round-trip" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser positions" `Quick test_parser_positions;
    Alcotest.test_case "parser rejects" `Quick test_parser_rejects;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "locals and arrays" `Quick test_locals_and_arrays;
    Alcotest.test_case "back-edge loop" `Quick test_back_edge_loop;
    Alcotest.test_case "back edge to instruction 0" `Quick test_entry_back_edge;
    Alcotest.test_case "stk register widths" `Quick test_stk_register_widths;
    Alcotest.test_case "stack spills across blocks" `Quick test_spill_across_blocks;
    Alcotest.test_case "unreachable code" `Quick test_unreachable_code;
    Alcotest.test_case "unreachable stack underflow" `Quick test_unreachable_underflow;
    Alcotest.test_case "recovery rejects" `Quick test_recovery_rejects;
    Alcotest.test_case "stack mismatch at join" `Quick test_stack_mismatch_at_join;
    Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
    Alcotest.test_case "emit round-trip" `Quick test_emit_roundtrip;
    Alcotest.test_case "emit optimised parity" `Quick test_emit_optimized_parity;
    Alcotest.test_case "driver exception" `Quick test_driver_exn;
  ]
  @ List.map
      (fun ((name, _, _) as app) ->
        Alcotest.test_case ("decompiled -O parity: " ^ name) `Quick
          (test_apps_decompiled_parity app))
      Test_compile.apps
