module Ir = Hypar_ir

type t = { alu : int; mul : int; div : int; mem : int; move : int }

let paper = { alu = 1; mul = 2; div = 4; mem = 1; move = 1 }

let of_class t = function
  | Ir.Types.Class_alu -> t.alu
  | Ir.Types.Class_mul -> t.mul
  | Ir.Types.Class_div -> t.div
  | Ir.Types.Class_mem -> t.mem
  | Ir.Types.Class_move -> t.move

let instr_weight t instr = of_class t (Ir.Instr.op_class instr)

let bb_weight t dfg =
  List.fold_left
    (fun acc (nd : Ir.Dfg.node) -> acc + instr_weight t nd.instr)
    0 (Ir.Dfg.nodes dfg)
