(** Robust evaluation of design-space points.

    Builds the platform a point describes, runs the Figure-2 flow on the
    shared prepared application and distils the result into a flat
    {!metrics} record (timing components, moved set, Eq.-2 reduction,
    and the energy of the partitioned execution under
    {!Hypar_core.Energy.default}).

    The work splits in two.  {!share} does everything that depends only
    on the platform: its greedy trajectory, which prices a plan shared by
    every platform of its coarse layer, beside the per-block energy
    table of its FPGA ({!energy_table}).  {!answer} does what depends on
    the point's timing constraint: a cut of that trajectory and an
    O(blocks) energy sum.  Points that
    differ only in their constraint share one {!shared}; {!Driver.run}
    builds one per distinct platform.

    A point whose evaluation raises — an invalid platform
    ([Invalid_argument] from the device models), a failed IR invariant
    ({!Hypar_ir.Verify.Failed}), or any other exception — is returned as
    [Error reason] instead of aborting the sweep.  [Sys.Break] (an
    interactive interrupt) is the exception: it propagates, so an
    interrupted sweep stops instead of recording the interrupt as the
    point's outcome. *)

type metrics = {
  cgc_desc : string;  (** e.g. ["two 2x2"], {!Hypar_coarsegrain.Cgc.describe} *)
  initial : Hypar_core.Engine.times;  (** the all-FPGA mapping *)
  final : Hypar_core.Engine.times;
      (** [t_coarse_cgc] is the "Cycles in CGC" row, in CGC cycles *)
  moved : int list;  (** moved kernels, in move order *)
  skipped : int;  (** kernels that could not move *)
  status : Hypar_core.Engine.status;
  met : bool;
  reduction : float;  (** percent vs the all-FPGA mapping *)
  energy : int;  (** partitioned-execution energy, {!Hypar_core.Energy} units *)
}

val platform_of : Space.point -> Hypar_core.Platform.t
(** Raises [Invalid_argument] on non-positive dimensions (the device
    models' own validation). *)

val platform :
  ?faults:Hypar_resilience.Fault.spec -> Space.point -> Hypar_core.Platform.t
(** {!platform_of}, degraded by [faults] first
    ({!Hypar_resilience.Degrade.apply}, non-strict: faults naming
    hardware this point does not have are skipped).  Raises like
    {!platform_of}, and [Failure] when the spec cannot apply. *)

type shared
(** The constraint-independent part of a platform's points. *)

val energy_table :
  Hypar_core.Engine.app_layer ->
  Hypar_core.Engine.fine_layer ->
  Hypar_core.Energy.table
(** Every block's {!Hypar_core.Energy.default} energy on either side.
    It reads the application and the FPGA's partition counts only, so
    a sweep builds one per distinct FPGA. *)

val share :
  plan:Hypar_core.Engine.plan ->
  energy:Hypar_core.Energy.table ->
  Hypar_core.Engine.characterisation ->
  shared
(** The platform's {!Hypar_core.Engine.trajectory} along [plan] (default
    engine options; the {!Hypar_core.Engine.plan} of the
    characterisation's application and coarse layers), with [energy],
    the {!energy_table} of its application and fine layer. *)

val answer :
  ?point_fuel:int ->
  (shared, exn) result ->
  Space.point ->
  (metrics, string) result
(** One point on its platform: one [explore.point] span, a
    {!Hypar_core.Engine.cut} at the point's constraint and the energy of
    the moved set.  [point_fuel] bounds the engine's kernel-movement
    search for this point (the companion interpreter budget is applied
    once at preparation time, see {!Hypar_core.Flow.prepare}).  An
    [Error] platform, or an exception from the cut, becomes the point's
    error: the exception's constructor, its message and the point's
    {!Space.point_key}, e.g.
    ["Invalid_argument: ... [point a0/k2/g2x2/r3/t500]"]. *)

val verify_input : Hypar_core.Flow.prepared -> unit
(** Checks the IR invariants of the prepared CDFG when
    {!Hypar_ir.Passes.verify_passes} is set, as {!Hypar_core.Engine.run}
    does on its input.  Raises {!Hypar_ir.Verify.Failed}. *)

val evaluate :
  ?faults:Hypar_resilience.Fault.spec ->
  ?point_fuel:int ->
  Hypar_core.Flow.prepared ->
  Space.point ->
  (metrics, string) result
(** One point on its own: {!verify_input}, {!platform}, a fresh
    {!Hypar_core.Engine.characterise}, kernel analysis and plan,
    {!share} and {!answer}. *)
