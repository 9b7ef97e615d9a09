(** Lowering of an inlined Mini-C program to the {!Hypar_ir.Cdfg.t} the
    methodology consumes (step 1 of the paper's flow).

    Control structures become basic blocks in the canonical shapes that
    make loop headers natural-loop headers ([for]/[while]: a condition
    block dominating the body; [do-while]: the body block with a trailing
    conditional branch).  Expressions are lowered to three-address code
    with fresh temporaries; logical operators are strict (no
    short-circuiting) and normalise their operands to 0/1 only when the
    operand is not already boolean-valued. *)

val instr_of_binop :
  Hypar_ir.Instr.var ->
  Ast.binop ->
  Hypar_ir.Instr.operand ->
  Hypar_ir.Instr.operand ->
  Hypar_ir.Instr.t option
(** [instr_of_binop dst op a b] is the one instruction [dst = a op b]
    lowers to; [None] for [&&] and [||], which lower to several. *)

val program : ?name:string -> Ast.program -> Hypar_ir.Cdfg.t
(** Lowers the (typechecked, inlined — a single [main]) program.
    Raises [Invalid_argument] on programs that were not inlined. *)
