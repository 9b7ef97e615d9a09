(** Control-flow graphs over {!Block.t}.

    Blocks are indexed by dense integer ids (the position in the block
    array); the entry block is the first one given to {!of_blocks}. *)

type t

exception Malformed of string

val of_blocks : Block.t list -> t
(** Builds a CFG. Raises {!Malformed} if the list is empty, a label is
    duplicated, or a terminator targets an unknown label. *)

val with_same_edges : t -> Block.t array -> t
(** [with_same_edges t blocks] is the CFG over [blocks], which carry
    [t]'s labels and terminators in [t]'s order (only their instructions
    differ).  It shares [t]'s label index and edges instead of resolving
    them again; nothing is checked, and [blocks] must not be mutated
    afterwards. *)

val entry : t -> int
val block_count : t -> int
val block : t -> int -> Block.t
val blocks : t -> Block.t array
val id_of_label : t -> Block.label -> int
val successors : t -> int -> int list
val predecessors : t -> int -> int list

val reverse_postorder : t -> int list
(** Reverse postorder over blocks reachable from the entry. *)

val reachable : t -> bool array

val idom : t -> int array
(** Immediate dominators ([idom.(entry) = entry]; unreachable blocks map to
    [-1]), computed with the Cooper–Harvey–Kennedy iterative algorithm. *)

val dominates : t -> int -> int -> bool
(** [dominates cfg a b] — does block [a] dominate block [b]?  [false]
    when [b] is unreachable.  [dominates cfg] computes {!idom} once; apply
    it partially to answer many queries on one CFG. *)

val back_edges : t -> (int * int) list
(** Edges [n -> h] where [h] dominates [n] (loop back-edges). *)

val instr_count : t -> int
