(** Loop pipelining (modulo scheduling) of kernels on the CGC data-path.

    A kernel moved to the coarse-grain hardware is a self-looping basic
    block executed thousands of times; Eq. 3 prices it at
    [latency × iterations], leaving the data-path idle between dependent
    steps.  Software pipelining overlaps iterations at an initiation
    interval [II = max(ResMII, RecMII)]:

    - [ResMII] — resource bound: node ops per node slot and memory ops
      per port, per cycle;
    - [RecMII] — recurrence bound: for every loop-carried scalar (live-in
      to the block and redefined by it), the cycle span from its first
      use to its (re)definition in the base schedule.

    Pipelined execution then takes [(iterations-1)·II + latency] CGC
    cycles.  This realises the paper's §3 observation that "through the
    pipelining among the stages of computations, the reconfigurable
    processing units are always utilized", applied within the coarse
    grain; the engine exposes it as [~cgc_pipelining]. *)

type t = {
  ii : int;  (** achieved initiation interval (CGC cycles) *)
  res_mii : int;
  rec_mii : int;
  latency : int;  (** single-iteration latency (base schedule makespan) *)
  recurrences : Hypar_ir.Instr.var list;  (** the loop-carried scalars *)
}

val analyse : Cgc.t -> Hypar_ir.Dfg.t -> carried:Hypar_ir.Instr.var list -> t option
(** [carried] are the block's loop-carried scalars (live-in ∩ defined —
    the engine derives them from liveness).  [None] when the DFG is not
    CGC-executable. *)
