(** Basic blocks: a straight-line instruction sequence ended by a single
    terminator, exactly the paper's unit of analysis and partitioning. *)

type label = string

type terminator =
  | Jump of label
  | Branch of { cond : Instr.operand; if_true : label; if_false : label }
  | Return of Instr.operand option

type t = { label : label; instrs : Instr.t list; term : terminator }

val make : label:label -> instrs:Instr.t list -> term:terminator -> t

val successor_labels : t -> label list
(** Labels this block may transfer control to (empty for returns). *)

val instr_count : t -> int

val terminator_uses : t -> Instr.var list
(** Variables read by the terminator. *)

val map_terminator_operands :
  (Instr.operand -> Instr.operand) -> terminator -> terminator
(** The terminator counterpart of {!Instr.map_operands}: the terminator
    itself when [f] returns its operand physically. *)

val iter_vars : (Instr.var -> unit) -> t -> unit
(** Every variable the block mentions, once per mention: each
    instruction's def and reads in order, then the terminator's reads. *)

val pp : Format.formatter -> t -> unit
val pp_terminator : Format.formatter -> terminator -> unit
