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

(** {2 Register widths}

    The one rule both frontends use to size the register an instruction
    defines.  Results are clamped to 1..32 bits, except that [select],
    [not] and [abs] keep their widest operand unclamped.  A load's width
    is each frontend's own choice. *)

val width_of_int : int -> Types.width
(** Bits of the two's-complement immediate [n], sign bit included, at
    most 32. *)

val width_of_operand : operand -> Types.width
(** A register's declared width, or {!width_of_int} of an immediate. *)

val alu_width : Types.alu_op -> operand -> operand -> Types.width
(** 1 for a comparison, one bit more than the wider operand for [add] and
    [sub], the wider operand for the rest. *)

val mul_width : operand -> operand -> Types.width
(** The sum of the operand widths. *)

val div_width : operand -> operand -> Types.width
(** The wider operand, for [div] and [rem]. *)

val un_width : Types.un_op -> operand -> Types.width
(** One bit more than the operand for [neg], the operand's width for
    [not] and [abs]. *)

val select_width : operand -> operand -> Types.width
(** [select_width if_true if_false]: the wider of the two values. *)

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
