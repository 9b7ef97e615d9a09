(** Healthy-vs-degraded partitioning comparison.

    Compares two Figure-2 engine runs — one on the intact platform, one
    on the {!Degrade}d one — and reports the damage: the [t_total] delta,
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

val pp : Format.formatter -> t -> unit
