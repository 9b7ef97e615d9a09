(** The partitioning engine — the complete Figure 2 flow.

    1. Map the whole application to the fine-grain hardware; exit if the
       timing constraint is already met.
    2. Run the analysis step (Eq. 1 kernels, decreasing total weight).
    3. Move kernels one by one to the coarse-grain data-path; after each
       movement recompute [t_total = t_FPGA + t_coarse + t_comm] (Eq. 2)
       and stop at the first satisfied constraint.

    All times are reported in FPGA clock-cycle units; the coarse-grain
    contribution is additionally reported raw, in CGC cycles (the paper's
    "Cycles in CGC" row), before conversion by the platform clock ratio.
    Kernels whose DFGs the CGC cannot execute (divisions) are skipped and
    recorded. *)

type times = {
  t_fpga : int;  (** Eq. 4, fine-grain part *)
  t_coarse_cgc : int;  (** Eq. 3 in CGC cycles *)
  t_coarse : int;  (** Eq. 3 converted to FPGA cycle units *)
  t_comm : int;  (** shared-memory transfer cycles *)
  t_total : int;  (** Eq. 2 *)
}

type step = {
  step_index : int;  (** 1-based *)
  moved_block : int;  (** kernel moved in this step *)
  kernel : Hypar_analysis.Kernel.entry;
  on_cgc : int list;  (** cumulative moved set, in move order *)
  times : times;
  meets_constraint : bool;
}

type status =
  | Met_without_partitioning  (** all-FPGA mapping already meets timing *)
  | Met_after of int
      (** satisfied after this many kernel movements (at least one) *)
  | Infeasible  (** kernels exhausted without meeting the constraint *)

type skip_reason =
  | Not_cgc_executable
      (** the DFG contains operations no CGC can run (division) *)
  | No_cgc_capacity
      (** the CGC could run it, but the platform's degraded data-path
          ({!Platform.t.cgc_health}) has no live resources for it — the
          kernel falls back to the FPGA *)

val skip_reason_string : skip_reason -> string

type t = {
  platform : Platform.t;
  timing_constraint : int;
  cdfg_name : string;
  initial : times;  (** the all-fine-grain mapping *)
  analysis : Hypar_analysis.Kernel.t;
  steps : step list;  (** in execution order *)
  skipped : (int * skip_reason) list;
      (** kernels that could not move, with reason *)
  status : status;
  final : times;
  moved : int list;  (** final moved set, in move order *)
  fine_cycles_per_iter : int array;  (** per block *)
  coarse_latency : int option array;  (** per block, CGC cycles; [None] = unmappable *)
  comm_cycles_per_iter : int array;  (** per block *)
  freq : int array;  (** per block *)
}

(** {2 Characterisation}

    Everything the greedy loop prices, split by what it depends on, so a
    caller sweeping many platforms computes each layer once per distinct
    key and assembles a platform's characterisation in O(blocks):

    - {!app_layer}: the application alone (CDFG × profile);
    - {!fine_layer}: application × FPGA;
    - {!coarse_layer}: application × CGC data-path × its health (×
      pipelining);
    - {!assemble}: the three layers × the platform's communication model
      and clock ratio. *)

type app_layer = private {
  cdfg : Hypar_ir.Cdfg.t;
  n : int;  (** block count *)
  freq : int array;  (** per block *)
  entries : int array;  (** per block: profiled entries from other blocks *)
  edges : ((int * int) * int) list;  (** profile edge counts *)
  live : Hypar_ir.Live.t;
  live_in_words : int array;  (** per block: |live-in| *)
  live_out_words : int array;  (** per block: |defs live-out| *)
}

type fine_layer = private {
  cycles_per_iteration : int array;  (** per block, Eq. 4 *)
  partition_count : int array;  (** per block, temporal partitions *)
}

type coarse_layer = private {
  latency : int option array;  (** per block, CGC cycles; [None] = unmappable *)
  pipeline : (int * int) option array;
      (** per block, [(ii, latency)] when modulo-scheduled *)
}

type characterisation = private {
  platform : Platform.t;
  app : app_layer;
  fine : fine_layer;
  coarse : coarse_layer;
  comm : int array;  (** per block, per-invocation transfer cycles *)
}

val app_layer : Hypar_ir.Cdfg.t -> Hypar_profiling.Profile.t -> app_layer
(** Frequencies, loop entries, liveness (one {!Hypar_ir.Live.analyse})
    and per-block communication word counts. *)

val block_words : app_layer -> int -> int
(** Words a block exchanges per invocation, as {!Comm.block_words}. *)

val fine_layer : app_layer -> Hypar_finegrain.Fpga.t -> fine_layer
(** Every block priced on the fine-grain hardware
    ({!Hypar_finegrain.Fine_map.price}).  Adds the layer's total to the
    [fine.temporal_partitions] counter, once per call. *)

val coarse_layer :
  ?cgc_pipelining:bool ->
  app_layer ->
  Hypar_coarsegrain.Cgc.t ->
  Hypar_coarsegrain.Cgc.health option ->
  coarse_layer
(** Every block's latency on the (possibly degraded) coarse-grain
    data-path ({!Hypar_coarsegrain.Coarse_map.latency}: scheduled, not
    bound); [cgc_pipelining] as in {!run}. *)

val assemble :
  app_layer -> fine_layer -> coarse_layer -> Platform.t -> characterisation
(** A platform's characterisation from precomputed layers, which must
    have been computed for this platform's FPGA, CGC and health (one
    [engine.characterise] span). *)

val characterise :
  ?cgc_pipelining:bool ->
  Platform.t ->
  Hypar_ir.Cdfg.t ->
  Hypar_profiling.Profile.t ->
  characterisation
(** All three layers for one platform, then {!assemble}. *)

(** {2 The greedy loop: one plan, one trajectory per platform, many cuts} *)

type plan
(** What the greedy loop does without pricing anything: kernels in
    [analysis]'s order (decreasing Eq.-1 weight), each moved to the
    coarse-grain data-path in turn or skipped with its reason, and every
    step's kernel and cumulative moved set.  It reads only the kernel
    order and which blocks the coarse layer maps, so every platform
    assembled from one coarse layer shares one plan. *)

val plan :
  ?granularity:[ `Block | `Loop ] ->
  analysis:Hypar_analysis.Kernel.t ->
  app_layer ->
  coarse_layer ->
  plan
(** [analysis]'s kernels planned over the coarse layer's mappable
    blocks; [granularity] as in {!run}. *)

type trajectory
(** The constraint-free greedy move list of one characterised platform:
    its plan, priced step by step.  It is extended lazily and memoised:
    a {!cut} performs only the moves it reads, and a later cut that
    reads no further performs none.  A trajectory is not thread-safe:
    cut it from one domain only. *)

val trajectory :
  ?comm_pricing:[ `Transition | `Per_invocation ] ->
  plan ->
  characterisation ->
  trajectory
(** Starts the loop from the all-FPGA mapping and follows [plan], which
    must have been built from this characterisation's application and
    coarse layers; [comm_pricing] as in {!run}. *)

val cut : ?max_moves:int -> timing_constraint:int -> trajectory -> t
(** Where the loop stops for one constraint: at the first step that
    meets it, or after [max_moves] movements, or when the kernels run
    out.  An exception raised while extending the trajectory is
    re-raised by every cut that reaches that point. *)

val run :
  ?max_moves:int ->
  ?comm_pricing:[ `Transition | `Per_invocation ] ->
  ?cgc_pipelining:bool ->
  ?granularity:[ `Block | `Loop ] ->
  ?verify_ir:bool ->
  Platform.t ->
  timing_constraint:int ->
  Hypar_ir.Cdfg.t ->
  Hypar_profiling.Profile.t ->
  t
(** Runs the flow. [max_moves] bounds the number of kernel movements
    (default: all kernels); [comm_pricing] selects the [t_comm] model
    (default [`Transition], see {!Comm}); [cgc_pipelining] (default off)
    prices self-looping moved kernels with modulo scheduling
    ({!Hypar_coarsegrain.Modulo}): each loop entry pays the full latency
    once and every further iteration only the initiation interval.
    [granularity] (default [`Block], the paper's) moves either single
    kernels or whole innermost loops per step — the [ablation:strategy]
    bench motivates [`Loop] for multi-block loop bodies.
    [verify_ir] (default {!Hypar_ir.Passes.verify_passes}) runs
    {!Hypar_ir.Verify.check} on the input CDFG before partitioning.
    Equal to [cut (trajectory (plan ~analysis c.app c.coarse) c)], with
    [c] the {!characterise} of the platform and [analysis] the
    {!Hypar_analysis.Kernel.analyse} of the application under the
    paper's weights. *)

val evaluate :
  ?comm_pricing:[ `Transition | `Per_invocation ] ->
  ?cgc_pipelining:bool ->
  Platform.t ->
  Hypar_ir.Cdfg.t ->
  Hypar_profiling.Profile.t ->
  (int list -> times)
(** [evaluate platform cdfg profile] characterises the platform from
    scratch, once, and returns a function pricing any moved set (Eq. 2)
    by walking every block and profile edge.  It is the oracle the
    incremental engine is checked against, so it never takes
    precomputed layers.  Used by the standalone probes and subsets of
    the baseline selection strategies ({!Baselines}) and the ablation
    benches.  Raises [Invalid_argument]
    when a moved block is not CGC-executable. *)

exception
  Delta_mismatch of {
    moved : int list;
    field : string;
    full : int;
    incremental : int;
  }
(** Raised by {!Inc.times} under {!check_incremental} when a delta-updated
    time disagrees with the full {!evaluate}-style recompute. *)

val check_incremental : bool ref
(** Debug cross-check switch (off by default): every
    {!Inc.times} read — including the ones inside {!run} — recomputes the
    times from scratch and raises {!Delta_mismatch} on disagreement.  The
    test suite runs with this on. *)

module Inc : sig
  (** Incremental recharacterisation state.  Where {!evaluate} prices a
      moved set by walking every block and profile edge, [Inc] maintains
      the running [t_fpga]/[t_coarse_cgc]/[t_comm] sums and updates them
      per {!move} in O(degree of the moved block): only the moved
      kernel's own contribution flips sides and only its incident CFG
      edges can change boundary state.  {!run} is built on this. *)

  type t

  val create :
    ?comm_pricing:[ `Transition | `Per_invocation ] ->
    ?cgc_pipelining:bool ->
    Platform.t ->
    Hypar_ir.Cdfg.t ->
    Hypar_profiling.Profile.t ->
    t
  (** Characterises once (like {!evaluate}) and starts from the all-FPGA
      mapping. *)

  val move : t -> int -> unit
  (** Moves a block to the coarse-grain data-path.  Raises
      [Invalid_argument] if it is already there, or (like {!evaluate})
      when the block executes but is not CGC-mappable. *)

  val unmove : t -> int -> unit
  (** Moves a block back to the FPGA — deltas are symmetric. *)

  val times : t -> times
  (** Current Eq. 2 times, O(1) off the running sums. *)

  val moved : t -> int list
  (** Current moved set, in move order. *)

  val reset : t -> unit
  (** Back to the all-FPGA mapping without recharacterising. *)
end

(** {2 The outcome of a run}

    One vocabulary for every report, payload and checkpoint: a status
    is turned into text only by {!status_key} and {!status_label}, and
    [met] and the reduction are derived only here. *)

val status_key : status -> string
(** The machine key of explore reports, checkpoints and serve payloads:
    ["met-without-partitioning"] / ["met-after-N"] / ["infeasible"]. *)

val status_of_key : string -> status option
(** The exact inverse of {!status_key}: [Some s] only for a string that
    [status_key s] writes (so not ["met-after-0x1F"], ["met-after-+3"],
    ["met-after-007"], ["met-after-0"] or ["met-after--1"]). *)

val status_label : status -> string
(** The human wording: ["met without partitioning"] / ["met after N
    movement(s)"] / ["infeasible"]. *)

val status_met : status -> bool
(** Whether the status satisfies the timing constraint. *)

val reduction_of_totals : initial:int -> final:int -> float
(** Cycle reduction from [initial] to [final] total cycles, in percent
    ([0.] when [initial] is [0]). *)

val reduction_percent : t -> float
(** {!reduction_of_totals} of the all-FPGA and the final [t_total] (the
    paper's last table row). *)

val met : t -> bool
(** {!status_met} of the run's status. *)

val pp : Format.formatter -> t -> unit
