(** Three-address instructions.

    A basic block is a sequence of these instructions followed by a
    terminator ({!Block.terminator}); the per-block data-flow graph
    ({!Dfg}) has one node per instruction. *)

type var = { vname : string; vid : int; vwidth : Types.width }
(** A scalar register. [vid] is the identity used by def/use analysis;
    [vname] is for printing only. *)

type operand = Var of var | Imm of int

type t =
  | Bin of { dst : var; op : Types.alu_op; a : operand; b : operand }
  | Mul of { dst : var; a : operand; b : operand }
  | Div of { dst : var; a : operand; b : operand }
  | Rem of { dst : var; a : operand; b : operand }
  | Un of { dst : var; op : Types.un_op; a : operand }
  | Mov of { dst : var; src : operand }
  | Select of { dst : var; cond : operand; if_true : operand; if_false : operand }
  | Load of { dst : var; arr : string; index : operand }
  | Store of { arr : string; index : operand; value : operand }

val def : t -> var option
(** Variable defined by the instruction, if any (stores define none). *)

val uses : t -> operand list
(** Operands read by the instruction, in syntactic order. *)

val used_vars : t -> var list
(** Variables among {!uses}. *)

val map_operands : (operand -> operand) -> t -> t
(** [map_operands f i] applies [f] to every operand [i] reads, in
    {!uses} order, and rebuilds [i] around the results.  It returns [i]
    itself when [f] returns every operand physically, so a rewrite that
    changes nothing allocates nothing. *)

val eval : (operand -> int option) -> t -> int option
(** [eval value i] is the constant [i] defines when [value] gives the
    constants of its operands: ALU, [mul] and unary operations fold,
    [div] and [rem] only on a non-zero divisor, a move copies, a select
    folds only on a known condition, and loads and stores never fold.
    The one folding rule of the constant lattice and of constant
    folding. *)

val op_class : t -> Types.op_class
(** Classification used by the weight, delay, area and scheduling models. *)

val accessed_array : t -> string option
(** Array touched by a load or store. *)

val is_store : t -> bool
val is_load : t -> bool

val mnemonic : t -> string
(** Short opcode name, e.g. ["add"], ["mul"], ["load"]. *)

val var_equal : var -> var -> bool

val pp_var : Format.formatter -> var -> unit
val pp_operand : Format.formatter -> operand -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
