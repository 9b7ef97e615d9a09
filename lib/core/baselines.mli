(** Baseline kernel-selection strategies.

    The paper's engine moves kernels greedily in decreasing Eq.-1 weight.
    This module provides the comparison points an evaluation of that
    choice needs:

    - {!Paper_greedy} — the paper's strategy (weight order, stop at first
      feasible point);
    - {!Benefit_greedy} — greedy on *measured* standalone benefit
      (Eq.-2 delta of moving just that kernel) instead of the static
      Eq.-1 weight;
    - {!Loop_greedy} — greedy over whole innermost loops;
    - {!Random_order} — seeded random kernel order (a sanity floor);
    - {!Exhaustive} — optimal subset over the top-[k] kernels: the
      feasible moved set with the fewest moves (ties broken by lowest
      [t_total]), or the best-[t_total] subset when nothing is feasible.

    The four greedy strategies are kernel orders over the engine's own
    loop: each passes its order to {!Engine.trajectory} ([`Loop]
    granularity for {!Loop_greedy}) and reads the {!Engine.cut} at the
    constraint, so a comparison traces the same [engine.move] spans as
    [hypar partition].  All strategies skip kernels the CGC cannot run
    (no coarse-grain latency in the characterisation).  {!Benefit_greedy}'s
    standalone probes and {!Exhaustive}'s subsets are priced by
    {!Engine.evaluate}, the from-scratch Eq.-2 recompute. *)

type strategy =
  | Paper_greedy
  | Benefit_greedy
  | Loop_greedy
      (** moves *whole innermost loops* (all movable kernel blocks of a
          natural loop together, in weight order), heaviest loop first —
          multi-block loop bodies like the ADPCM sample loop then never
          straddle the fine/coarse boundary *)
  | Random_order of int  (** seed *)
  | Exhaustive of int  (** consider the top-k kernels (k <= 20) *)

type outcome = {
  strategy : strategy;
  name : string;
  moved : int list;  (** in move order (or the chosen subset) *)
  met : bool;
  t_total : int;
  evaluations : int;
      (** Eq.-2 reads spent: for a greedy order, the all-FPGA start plus
          one per step of the trajectory (plus the standalone probes of
          {!Benefit_greedy}); for {!Exhaustive}, one per subset *)
}

val compare_all :
  ?strategies:strategy list ->
  Platform.t ->
  timing_constraint:int ->
  Hypar_ir.Cdfg.t ->
  Hypar_profiling.Profile.t ->
  outcome list
(** Defaults: paper greedy, benefit greedy, loop greedy, random (seed 1),
    exhaustive over the top 12 kernels.  The platform is characterised
    and the application analysed once for all of them. *)
