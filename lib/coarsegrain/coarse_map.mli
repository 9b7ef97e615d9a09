(** Mapping to the coarse-grain data-path: the per-block latencies the
    partitioning engine sums into Eq. 3.

    The latency of a block is its schedule makespan in [T_CGC] cycles
    (at least 1); CDFGs are handled by iterating over their DFGs.
    Blocks containing divisions cannot execute on CGC nodes and are
    reported as unmappable — the partitioning engine keeps them on the
    fine-grain side. *)

type block_mapping = {
  block_id : int;
  latency : int;  (** per invocation, in CGC cycles *)
  schedule : Schedule.t;
  binding : Binding.t;
}

val map_dfg : ?health:Cgc.health -> Cgc.t -> Hypar_ir.Dfg.t -> block_mapping option
(** [None] when the DFG is not CGC-executable: divisions, or — under a
    degraded [health] — no live slot for an operation kind it needs
    ({!Schedule.supported_on}). *)

val map_block :
  ?health:Cgc.health -> Cgc.t -> Hypar_ir.Cdfg.t -> int -> block_mapping option

val latency : ?health:Cgc.health -> Cgc.t -> Hypar_ir.Dfg.t -> int option
(** {!map_dfg}'s [latency] alone: the DFG is scheduled but not bound to
    registers ({!Binding.bind}), the cost the partitioning engine does
    not read.  [None] exactly when {!map_dfg} is [None]. *)

val pp_block_mapping : Format.formatter -> block_mapping -> unit
