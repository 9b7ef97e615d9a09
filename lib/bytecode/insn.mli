(** The HYPAR bytecode instruction set.

    A small stack machine in the spirit of the binaries the
    decompilation-partitioning line of work starts from: immediates and
    named local slots feed an operand stack; arithmetic pops its operands
    and pushes the result; arrays are the same shared-memory objects the
    CDFG models.  The set maps 1:1 onto {!Hypar_ir.Instr} operations so
    stack-to-register recovery loses nothing. *)

type t =
  | Push of int  (** push an immediate *)
  | Load of string  (** push the value of a local slot *)
  | Store of string  (** pop into a local slot *)
  | Aload of string  (** pop an index, push [arr[index]] *)
  | Astore of string  (** pop a value, pop an index, [arr[index] := value] *)
  | Alu of Hypar_ir.Types.alu_op  (** pop b, pop a, push [a op b] *)
  | Mul  (** pop b, pop a, push [a * b] *)
  | Div  (** pop b, pop a, push [a / b] (traps on 0) *)
  | Rem  (** pop b, pop a, push [a mod b] (traps on 0) *)
  | Un of Hypar_ir.Types.un_op  (** pop a, push [op a] *)
  | Select  (** pop f, pop t, pop c, push [c ? t : f] *)
  | Dup  (** duplicate the top of stack *)
  | Pop  (** drop the top of stack *)
  | Swap  (** exchange the two topmost values *)
  | Jmp of string  (** unconditional jump *)
  | Brt of string  (** pop c; jump when [c <> 0], else fall through *)
  | Brf of string  (** pop c; jump when [c = 0], else fall through *)
  | Ret  (** return, no value *)
  | Retv  (** pop a value and return it *)

val mnemonic : t -> string

val to_string : t -> string
(** Mnemonic plus operand, exactly as the assembler parses it. *)

val ends_block : t -> bool
(** Does this instruction terminate a basic block?  True for [Jmp],
    [Brt], [Brf], [Ret] and [Retv]. *)

val falls_through : t -> bool
(** May control continue to the next instruction?  False only for
    [Jmp], [Ret] and [Retv]. *)

val branch_target : t -> string option
(** The label a [Jmp]/[Brt]/[Brf] transfers to. *)
