(** The Control-Data Flow Graph: the paper's model of computation
    (step 1 of the methodology).

    A CDFG couples a control-flow graph of basic blocks with one data-flow
    graph per block, plus the array (memory) declarations the program
    touches.  This is the single input consumed by the analysis step, both
    mappers and the partitioning engine. *)

type array_decl = {
  aname : string;
  size : int;
  init : int array option;  (** initial contents; ROM tables set this *)
  is_const : bool;  (** ROM: stores to it are rejected by validation *)
  elem_width : Types.width;
}

type block_info = {
  block : Block.t;
  loop_depth : int;  (** number of natural loops containing the block *)
}

type t

val make : ?name:string -> arrays:array_decl list -> Cfg.t -> t
(** Computes each block's loop depth.  No DFG is built here (see {!dfg})
    and nothing is validated: call {!validate} or {!Verify.check} for
    that. *)

val with_blocks : t -> Block.t list -> t
(** [with_blocks t blocks] is [make] over [Cfg.of_blocks blocks] with
    [t]'s name and arrays.  When every block carries, physically, the
    label and terminator of [t]'s block at the same index, the CFG's
    edges and the loop depths are [t]'s, not computed again.  A block
    whose instruction list is physically that of the block of [t] with
    the same label keeps that block's built DFG; every other block's DFG
    is built on first use.  Raises {!Cfg.Malformed} as {!Cfg.of_blocks}
    does. *)

val dfg : t -> int -> Dfg.t
(** [dfg t i] is the DFG of block [i], built by {!Dfg.of_instrs} on the
    first call and cached in [t].  Safe to call from several domains at
    once: domains that race on a block's first use may each build the
    same DFG, and one of the equal results is kept. *)

val name : t -> string
val cfg : t -> Cfg.t
val arrays : t -> array_decl list
val array_decl : t -> string -> array_decl option
val block_count : t -> int
val info : t -> int -> block_info
val infos : t -> block_info array
val block_ids : t -> int list
val total_instrs : t -> int

val validate : t -> (unit, string) result
(** Array checks only: every accessed array is declared and no store
    targets a const array.  The first failure is returned.  The full
    invariant set is {!Verify.check}. *)

val pp_summary : Format.formatter -> t -> unit
(** One line per block: id, label, instruction count, DFG depth, loop
    depth. *)
