(* Unit tests for Hypar_ir.Instr: def/use sets, classification, the
   operand rewriter, the constant rule, printing. *)

module Ir = Hypar_ir

let v name id = { Ir.Instr.vname = name; vid = id; vwidth = 16 }

let test_def () =
  let x = v "x" 0 and a = v "a" 1 in
  let bin = Ir.Instr.Bin { dst = x; op = Ir.Types.Add; a = Var a; b = Imm 1 } in
  (match Ir.Instr.def bin with
  | Some d -> Alcotest.(check int) "bin defines dst" 0 d.Ir.Instr.vid
  | None -> Alcotest.fail "bin must define");
  let st = Ir.Instr.Store { arr = "m"; index = Imm 0; value = Var a } in
  Alcotest.(check bool) "store defines nothing" true (Ir.Instr.def st = None)

let test_uses () =
  let x = v "x" 0 and a = v "a" 1 and b = v "b" 2 in
  let sel =
    Ir.Instr.Select { dst = x; cond = Var a; if_true = Var b; if_false = Imm 3 }
  in
  Alcotest.(check int) "select uses 3 operands" 3 (List.length (Ir.Instr.uses sel));
  Alcotest.(check int) "select uses 2 vars" 2 (List.length (Ir.Instr.used_vars sel));
  let ld = Ir.Instr.Load { dst = x; arr = "m"; index = Var a } in
  Alcotest.(check int) "load uses index" 1 (List.length (Ir.Instr.used_vars ld))

let test_classification () =
  let x = v "x" 0 in
  let checks =
    [
      (Ir.Instr.Bin { dst = x; op = Ir.Types.Add; a = Imm 1; b = Imm 2 }, Ir.Types.Class_alu);
      (Ir.Instr.Un { dst = x; op = Ir.Types.Abs; a = Imm 1 }, Ir.Types.Class_alu);
      (Ir.Instr.Mul { dst = x; a = Imm 1; b = Imm 2 }, Ir.Types.Class_mul);
      (Ir.Instr.Div { dst = x; a = Imm 1; b = Imm 2 }, Ir.Types.Class_div);
      (Ir.Instr.Rem { dst = x; a = Imm 1; b = Imm 2 }, Ir.Types.Class_div);
      (Ir.Instr.Mov { dst = x; src = Imm 1 }, Ir.Types.Class_move);
      (Ir.Instr.Load { dst = x; arr = "m"; index = Imm 0 }, Ir.Types.Class_mem);
      (Ir.Instr.Store { arr = "m"; index = Imm 0; value = Imm 1 }, Ir.Types.Class_mem);
    ]
  in
  List.iter
    (fun (instr, expected) ->
      Alcotest.(check string)
        (Ir.Instr.mnemonic instr)
        (Ir.Types.string_of_op_class expected)
        (Ir.Types.string_of_op_class (Ir.Instr.op_class instr)))
    checks

let test_arrays_and_predicates () =
  let x = v "x" 0 in
  let ld = Ir.Instr.Load { dst = x; arr = "mem"; index = Imm 0 } in
  let st = Ir.Instr.Store { arr = "mem"; index = Imm 0; value = Imm 1 } in
  let mv = Ir.Instr.Mov { dst = x; src = Imm 1 } in
  Alcotest.(check (option string)) "load array" (Some "mem") (Ir.Instr.accessed_array ld);
  Alcotest.(check (option string)) "mov array" None (Ir.Instr.accessed_array mv);
  Alcotest.(check bool) "is_load" true (Ir.Instr.is_load ld);
  Alcotest.(check bool) "is_store" true (Ir.Instr.is_store st);
  Alcotest.(check bool) "load is not store" false (Ir.Instr.is_store ld)

(* one instruction of each constructor, every operand a register *)
let each_constructor () =
  let x = v "x" 0 and a = v "a" 1 and b = v "b" 2 and c = v "c" 3 in
  [
    Ir.Instr.Bin { dst = x; op = Ir.Types.Sub; a = Var a; b = Var b };
    Ir.Instr.Mul { dst = x; a = Var a; b = Var b };
    Ir.Instr.Div { dst = x; a = Var a; b = Var b };
    Ir.Instr.Rem { dst = x; a = Var a; b = Var b };
    Ir.Instr.Un { dst = x; op = Ir.Types.Neg; a = Var a };
    Ir.Instr.Mov { dst = x; src = Var a };
    Ir.Instr.Select { dst = x; cond = Var a; if_true = Var b; if_false = Var c };
    Ir.Instr.Load { dst = x; arr = "m"; index = Var a };
    Ir.Instr.Store { arr = "m"; index = Var a; value = Var b };
  ]

let test_map_operands () =
  List.iter
    (fun i ->
      let what = Ir.Instr.mnemonic i in
      Alcotest.(check bool) (what ^ ": unchanged is physical") true
        (Ir.Instr.map_operands Fun.id i == i);
      (* register k becomes the constant 10 + k, in place *)
      let imm = function
        | Ir.Instr.Var r -> Ir.Instr.Imm (10 + r.Ir.Instr.vid)
        | Ir.Instr.Imm _ as op -> op
      in
      let j = Ir.Instr.map_operands imm i in
      Alcotest.(check (list string)) (what ^ ": every operand rewritten in order")
        (List.map (fun op -> Format.asprintf "%a" Ir.Instr.pp_operand (imm op))
           (Ir.Instr.uses i))
        (List.map (Format.asprintf "%a" Ir.Instr.pp_operand) (Ir.Instr.uses j));
      Alcotest.(check bool) (what ^ ": same destination") true
        (Ir.Instr.def i = Ir.Instr.def j && Ir.Instr.mnemonic j = what))
    (each_constructor ());
  let a = v "a" 1 in
  List.iter
    (fun t ->
      Alcotest.(check bool) "terminator unchanged is physical" true
        (Ir.Block.map_terminator_operands Fun.id t == t))
    [
      Ir.Block.Jump "l";
      Ir.Block.Branch { cond = Var a; if_true = "t"; if_false = "f" };
      Ir.Block.Return None;
      Ir.Block.Return (Some (Var a));
    ]

(* registers 1, 2 and 3 hold 7, 0 and 3 *)
let test_eval () =
  let value = function
    | Ir.Instr.Imm n -> Some n
    | Ir.Instr.Var r -> List.assoc_opt r.Ir.Instr.vid [ (1, 7); (2, 0); (3, 3) ]
  in
  let x = v "x" 0 and a = v "a" 1 and z = v "z" 2 and u = v "u" 9 in
  let cases =
    [
      ("sub", Ir.Instr.Bin { dst = x; op = Ir.Types.Sub; a = Var a; b = Imm 2 }, Some 5);
      ("sub of unknown", Ir.Instr.Bin { dst = x; op = Ir.Types.Sub; a = Var u; b = Imm 2 }, None);
      ("mul", Ir.Instr.Mul { dst = x; a = Var a; b = Imm 3 }, Some 21);
      ("div", Ir.Instr.Div { dst = x; a = Var a; b = Imm 2 }, Some 3);
      ("div by zero", Ir.Instr.Div { dst = x; a = Var a; b = Var z }, None);
      ("rem", Ir.Instr.Rem { dst = x; a = Var a; b = Imm 4 }, Some 3);
      ("rem by zero", Ir.Instr.Rem { dst = x; a = Var a; b = Imm 0 }, None);
      ("neg", Ir.Instr.Un { dst = x; op = Ir.Types.Neg; a = Var a }, Some (-7));
      ("mov", Ir.Instr.Mov { dst = x; src = Var a }, Some 7);
      ("select on known", Ir.Instr.Select { dst = x; cond = Var z; if_true = Var u; if_false = Imm 4 }, Some 4);
      ("select on unknown", Ir.Instr.Select { dst = x; cond = Var u; if_true = Imm 4; if_false = Imm 4 }, None);
      ("load", Ir.Instr.Load { dst = x; arr = "m"; index = Imm 0 }, None);
      ("store", Ir.Instr.Store { arr = "m"; index = Imm 0; value = Imm 1 }, None);
    ]
  in
  List.iter
    (fun (what, i, want) -> Alcotest.(check (option int)) what want (Ir.Instr.eval value i))
    cases

let test_pp () =
  let x = v "x" 0 and a = v "a" 1 in
  let bin = Ir.Instr.Bin { dst = x; op = Ir.Types.Add; a = Var a; b = Imm 1 } in
  Alcotest.(check string) "pp bin" "x#0 = add a#1, 1" (Ir.Instr.to_string bin);
  let st = Ir.Instr.Store { arr = "m"; index = Imm 2; value = Var a } in
  Alcotest.(check string) "pp store" "m[2] = a#1" (Ir.Instr.to_string st)

let suite =
  [
    Alcotest.test_case "def" `Quick test_def;
    Alcotest.test_case "uses" `Quick test_uses;
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "arrays and predicates" `Quick test_arrays_and_predicates;
    Alcotest.test_case "pretty-printing" `Quick test_pp;
    Alcotest.test_case "map_operands" `Quick test_map_operands;
    Alcotest.test_case "eval" `Quick test_eval;
  ]
