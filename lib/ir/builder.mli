(** Imperative API for constructing CDFGs.  Both frontends build through
    it: the Mini-C lowering ([Hypar_minic.Lower]) numbers its registers,
    emits its instructions and assembles its blocks here, and the
    bytecode recovery ([Hypar_bytecode.Recover]) numbers its registers
    here.  Tests, synthetic workload generators and hand-written examples
    use it too.  The frontends size registers with the width rule in
    {!Instr}; a width left out is 16. *)

type t

val create : unit -> t

val fresh_var : ?width:Types.width -> t -> string -> Instr.var
(** A new variable with a unique id. *)

val var : Instr.var -> Instr.operand
val imm : int -> Instr.operand

val emit : t -> Instr.t -> unit
(** Append an instruction to the block under construction. *)

val bin : ?width:Types.width -> t -> Types.alu_op -> string
  -> Instr.operand -> Instr.operand -> Instr.var
(** [bin b op name a b'] emits [name := a op b'] and returns the fresh
    destination. *)

val mul : ?width:Types.width -> t -> string -> Instr.operand -> Instr.operand -> Instr.var
val un : ?width:Types.width -> t -> Types.un_op -> string -> Instr.operand -> Instr.var
val mov : ?width:Types.width -> t -> string -> Instr.operand -> Instr.var
val load : ?width:Types.width -> t -> string -> arr:string -> Instr.operand -> Instr.var
val store : t -> arr:string -> Instr.operand -> Instr.operand -> unit

val finish_block : t -> label:Block.label -> term:Block.terminator -> unit
(** Close the pending instruction list as a block with the given label. *)

val declare_array : ?init:int array -> ?is_const:bool -> ?elem_width:Types.width
  -> t -> string -> int -> unit

val cdfg : ?name:string -> t -> Cdfg.t
(** Build the final CDFG from the accumulated blocks (first block is the
    entry). Raises {!Cfg.Malformed} if no block was finished. *)

val dfg_of : (t -> unit) -> Dfg.t
(** [dfg_of f] runs [f] on a fresh builder and returns the DFG of the
    instructions it emitted — handy for DFG-level unit tests. *)
