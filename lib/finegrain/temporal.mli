(** Temporal partitioning — the paper's Figure 3 algorithm, verbatim.

    Nodes are visited level by level (ASAP order) and packed greedily
    into temporal partitions: a node joins the current partition while
    the accumulated area fits in [A_FPGA]; otherwise a new partition is
    opened with that node.  Dependences never break: every predecessor
    of a node sits at a lower level, hence in the same or an earlier
    partition — the invariant property tests check.

    The nodes are walked once, in {!Hypar_ir.Dfg.level_order}.  Since
    partition indices never decrease along that order, the same walk
    also prices the mapping: {!price} and {!partition_priced} sum each
    (partition, level) group's max delay and each partition's
    reconfiguration as the walk leaves them. *)

type partition = {
  index : int;  (** 1-based, as in the paper *)
  node_ids : int list;  (** in assignment order *)
  area_used : int;
}

type t = {
  partitions : partition list;  (** ascending index *)
  assignment : int array;  (** node id -> partition index *)
}

val partition :
  area:int -> size:(Hypar_ir.Instr.t -> int) -> Hypar_ir.Dfg.t -> t
(** Raises [Invalid_argument] if [area <= 0].  A node larger than the
    whole device still receives its own partition, as in the paper's
    pseudocode. *)

type cost = {
  count : int;  (** non-empty temporal partitions, as {!count} *)
  compute_cycles : int;
      (** Σ over (partition, ASAP level) groups of the members' max
          [delay] (a group whose delays are all [<= 0] costs 0) *)
  reconfig_cycles : int;
      (** Σ over partitions of [reconfig ~partition_area:area_used] *)
}

val price :
  delay:(Hypar_ir.Instr.t -> int) ->
  reconfig:(partition_area:int -> int) ->
  area:int ->
  size:(Hypar_ir.Instr.t -> int) ->
  Hypar_ir.Dfg.t ->
  cost
(** The cost of {!partition}'s result, from the same walk, without
    recording assignments or members. *)

val partition_priced :
  delay:(Hypar_ir.Instr.t -> int) ->
  reconfig:(partition_area:int -> int) ->
  area:int ->
  size:(Hypar_ir.Instr.t -> int) ->
  Hypar_ir.Dfg.t ->
  t * cost
(** {!partition} and {!price} from one walk. *)

val partition_best_fit :
  area:int -> size:(Hypar_ir.Instr.t -> int) -> Hypar_ir.Dfg.t -> t
(** Baseline for comparison: like the paper's algorithm, nodes are
    visited level by level, but each node is placed into the
    lowest-indexed partition that still has room *and* comes no earlier
    than any of its predecessors' partitions (first-fit with backfill).
    Never produces more partitions than {!partition}; the
    [ablation:temporal] bench quantifies the gap. *)

val count : t -> int
(** Number of temporal partitions (0 for an empty DFG). *)

val is_valid : Hypar_ir.Dfg.t -> t -> bool
(** Checks the dependence invariant: for every edge [u -> v],
    [assignment u <= assignment v]. *)

val pp : Format.formatter -> t -> unit
