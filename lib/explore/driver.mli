(** The exploration engine: space in, evaluated + analysed summary out.

    [run] expands the space, deduplicates the points against the memo
    cache (keyed by platform configuration) and evaluates the unique
    configurations in two stages, each a {!Hypar_obs.Pool.map}:

    + once per sweep the engine-input IR check
      ({!Eval.verify_input}), the application layer and the kernel
      analysis; then the fine-grain characterisation once per distinct
      FPGA and the coarse-grain one, with the greedy loop's move plan
      ({!Hypar_core.Engine.plan}), once per distinct CGC × health
      (after [faults]);
    + one task per distinct platform: its greedy trajectory along that
      plan ({!Hypar_core.Engine.trajectory}), then each of its points, with
      retries, as a {!Hypar_core.Engine.cut} of that trajectory and an
      energy sum ({!Eval.answer}).

    Per-point results are reassembled in enumeration order — so the
    summary (and anything rendered from it, the checkpoint included) is
    byte-identical for every [jobs] value, and equal point by point to a
    standalone {!Hypar_core.Engine.run}.

    Failed points (see {!Eval.evaluate}) are carried in the result list
    with their error string; {!all_failed} is the only condition callers
    should treat as fatal.

    Analysis: the Pareto frontier minimises (A_FPGA area, final t_total,
    energy) over the successful points, and one best point is selected
    per objective — among constraint-meeting points when any exists,
    otherwise among all successful ones. *)

type point_result = {
  point : Space.point;
  outcome : (Eval.metrics, string) result;
  cached : bool;  (** served from an earlier identical configuration *)
}

type t = {
  workload : string;
  digest : string Lazy.t;
      (** CDFG digest shared by every checkpoint key, computed on first
          read *)
  jobs : int;
  results : point_result array;  (** in {!Space.points} order *)
  cache : Cache.stats;
  pareto : bool array;  (** frontier membership per result (failed: false) *)
  best_time : int option;  (** result index minimising final [t_total] *)
  best_area : int option;  (** result index minimising A_FPGA *)
  best_energy : int option;  (** result index minimising energy *)
}

val run :
  ?jobs:int ->
  ?workload:string ->
  ?faults:Hypar_resilience.Fault.spec ->
  ?retries:int ->
  ?point_fuel:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  Hypar_core.Flow.prepared ->
  Space.t ->
  (t, string) result
(** [jobs] defaults to 1; [workload] (default the CDFG name) labels the
    reports.  [Error] for an invalid space (empty, or larger than
    [max_points]) or an unusable checkpoint file.

    Resilience hardening: [faults] evaluates every point on the
    {!Hypar_resilience.Degrade}d platform and injects the spec's
    transient failures; [retries] (default 0) re-attempts a failed point
    evaluation with deterministic backoff ({!Hypar_resilience.Retry});
    [point_fuel] bounds each point's engine search ({!Eval.evaluate}).
    [checkpoint] journals every evaluated point to a crash-safe file,
    platform by platform as each group of [jobs] platforms is answered,
    in enumeration order (the same file for every [jobs]);
    with [resume] (default false) outcomes already journalled there are
    restored instead of re-evaluated (counted by the
    [explore.resumed_points] counter) and the rendered summary is
    byte-identical to an uninterrupted run. *)

val ok_count : t -> int
val failed_count : t -> int
val all_failed : t -> bool
(** No point evaluated successfully (and the space was non-empty). *)
