(** Energy-constrained partitioning — the paper's "future work".

    A parametric energy model prices every dynamic operation on either
    side of the platform (coarse-grain ASIC operations are substantially
    cheaper than their FPGA equivalents), plus the FPGA reconfiguration
    energy per temporal partition and the shared-memory traffic of moved
    kernels.  {!partition} runs the same greedy kernel-movement loop as
    the timing engine, but against an energy budget. *)

type class_energy = { alu : int; mul : int; div : int; mem : int; move : int }

type model = {
  fpga_op : class_energy;  (** per dynamic operation on the FPGA *)
  cgc_op : class_energy;  (** per dynamic operation on a CGC node *)
  reconfig : int;  (** per temporal-partition reconfiguration *)
  comm_word : int;  (** per word through the shared memory *)
}

val default : model
(** FPGA ops cost ~5x their CGC equivalents (the coarse-grain advantage
    the paper cites [1]); reconfiguration 500, memory word 8 units. *)

val block_energy_fpga : model -> Platform.t -> Hypar_ir.Cdfg.t -> int -> int
(** Energy of one invocation of a block mapped on the FPGA (operations +
    per-partition reconfiguration). *)

type table = private {
  on_fpga : int array;  (** per block: freq × one invocation on the FPGA *)
  on_cgc : int array;
      (** per block: freq × (one invocation on the CGC + its transfers) *)
}

val table :
  model ->
  Hypar_ir.Cdfg.t ->
  freq:(int -> int) ->
  partitions:(int -> int) ->
  words:(int -> int) ->
  table
(** Every block's energy on either side, from its frequency, its
    temporal-partition count on the FPGA and the words it exchanges per
    invocation ({!Comm.block_words}).  The two prices are read only for
    executed blocks. *)

val total : table -> moved:int list -> int
(** Energy of the partitioned execution that runs [moved] on the CGC and
    everything else on the FPGA, in O(blocks). *)

val app_energy :
  model -> Platform.t -> Hypar_ir.Cdfg.t -> freq:(int -> int) -> moved:int list -> int
(** Total energy of a partitioned execution, characterised from scratch:
    [total] over a fresh [table]. *)

type step = { moved_block : int; energy : int; meets_budget : bool }

type t = {
  model : model;
  energy_budget : int;
  initial_energy : int;  (** all-FPGA *)
  steps : step list;
  final_energy : int;
  moved : int list;
  feasible : bool;
}

val partition :
  model ->
  Platform.t ->
  energy_budget:int ->
  Hypar_ir.Cdfg.t ->
  Hypar_profiling.Profile.t ->
  t
(** Greedy kernel movement (decreasing Eq.-1 weight) until the energy
    budget is met; kernel movements that *increase* energy (communication
    dominating) are rolled back and skipped. *)

val reduction_percent : t -> float
val pp : Format.formatter -> t -> unit
