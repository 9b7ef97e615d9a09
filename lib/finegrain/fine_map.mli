(** Mapping to the fine-grain hardware and its cycle accounting (paper
    §3.2 and Eq. 4).

    Within a temporal partition, nodes execute in increasing ASAP-level
    order; nodes of one level inside one partition run in parallel, so a
    (partition, level) group costs the maximum FPGA delay of its
    operations.  Every temporal partition additionally pays the full
    reconfiguration cost.  The partitioning engine sums the per-block
    cycles into Eq. 4: [t_FPGA = Σ_i t_to_FPGA(BB_i) · Iter(BB_i)]. *)

type block_mapping = {
  block_id : int;
  partition_count : int;
  compute_cycles : int;  (** per invocation, without reconfiguration *)
  reconfig_cycles : int;
      (** per invocation: the sum of each partition's reconfiguration cost
          under the device's {!Fpga.reconfig_model} *)
  cycles_per_iteration : int;  (** compute + reconfiguration *)
  partitions : Temporal.t;
}

val map_dfg : Fpga.t -> Hypar_ir.Dfg.t -> block_mapping
(** Map a single DFG (block id is set to [-1]). *)

val map_block : Fpga.t -> Hypar_ir.Cdfg.t -> int -> block_mapping

type price = {
  partition_count : int;  (** as {!block_mapping}'s *)
  cycles_per_iteration : int;  (** as {!block_mapping}'s *)
}

val price : Fpga.t -> Hypar_ir.Cdfg.t -> int -> price
(** The two numbers the partitioning engine reads of {!map_block}, from
    the same Figure-3 walk ({!Temporal.price}) but without recording the
    temporal partitions — the per-FPGA characterisation a design-space
    sweep repeats. *)

val map_cdfg : Fpga.t -> Hypar_ir.Cdfg.t -> block_mapping array
(** One mapping per basic block ("the mapping methodology also handles
    CDFGs by iteratively mapping the DFGs composing the CDFG"). *)

val pp_block_mapping : Format.formatter -> block_mapping -> unit
