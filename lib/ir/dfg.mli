(** Per-basic-block data-flow graphs.

    One node per instruction; edges are true (read-after-write) data
    dependences plus the ordering edges needed for correct hardware
    execution: write-after-write and write-after-read on scalar registers,
    and load/store ordering on each array.  ASAP levelling over this graph
    is the backbone of both mapping algorithms: the fine-grain temporal
    partitioner consumes ASAP levels directly (paper §3.2, Figure 3), and
    the coarse-grain list scheduler uses ALAP-based priorities. *)

type node = { id : int; instr : Instr.t }

type t

val of_instrs : Instr.t list -> t
(** Build the DFG of a straight-line instruction sequence (program order
    is the order of the list). *)

val node_count : t -> int
val node : t -> int -> node
val nodes : t -> node list
val succs : t -> int -> int list
val preds : t -> int -> int list

val asap : t -> int array
(** Unit-delay ASAP level of every node, starting at 1 (paper convention:
    nodes with no predecessors are level 1). *)

val level : t -> int -> int
(** ASAP level of one node, without copying {!asap}. *)

val alap : t -> int array
(** Unit-delay ALAP level of every node within [max_level]. *)

val max_level : t -> int
(** Highest ASAP level ([0] for an empty graph). *)

val level_order : t -> int array
(** Every node id, by ascending ASAP level and in program order within a
    level: the order in which Figure 3 visits the nodes.  Computed once
    by {!of_instrs} with a counting sort; the array is the graph's own,
    so callers must not mutate it. *)

val pred_arrays : t -> int array array
(** Every node's {!preds}, as arrays.  Computed on first use and kept;
    the arrays are the graph's own, so callers must not mutate them. *)

val critical_order : t -> int array
(** Every node id, most critical first: by ascending ALAP level, then
    more successors first, then program order — the coarse-grain list
    scheduler's default priority.  Computed on first use and kept; the
    array is the graph's own, so callers must not mutate it. *)

val live_in_vars : t -> Instr.var list
(** Variables read before any definition in the block (operand inputs). *)

val is_well_formed : t -> bool
(** All edges point forward in program order (guaranteed by construction;
    exposed for property tests). *)
