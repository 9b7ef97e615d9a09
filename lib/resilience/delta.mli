(** Healthy-vs-degraded partitioning comparison.

    Runs the Figure-2 engine twice — once on the intact platform, once on
    the {!Degrade}d one — and reports the damage: the [t_total] delta,
    the relative slowdown, and the kernels that moved to the CGC on the
    healthy platform but fell back to the FPGA under degradation. *)

type t = {
  healthy : Hypar_core.Engine.t;
  degraded : Hypar_core.Engine.t;
  fallback_kernels : int list;
      (** moved on the healthy platform, not on the degraded one *)
  t_total_delta : int;  (** degraded minus healthy final [t_total] *)
  slowdown_percent : float;
}

val of_runs :
  healthy:Hypar_core.Engine.t -> degraded:Hypar_core.Engine.t -> t

val run :
  ?comm_pricing:[ `Transition | `Per_invocation ] ->
  ?cgc_pipelining:bool ->
  ?granularity:[ `Block | `Loop ] ->
  Fault.spec ->
  Hypar_core.Platform.t ->
  timing_constraint:int ->
  Hypar_ir.Cdfg.t ->
  Hypar_profiling.Profile.t ->
  (t, string) result
(** Degrades the platform ({!Degrade.apply}, strict) and partitions on
    both.  [Error] only when the spec does not fit the platform. *)

val pp : Format.formatter -> t -> unit
