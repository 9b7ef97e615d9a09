(** Executor for flattened programs ({!Compile}) — the compiled backend
    of the profiling interpreter.  Each run turns every block into one
    chain of closures: each instruction's closure tail-calls the next
    and the last returns the next block id.  Inside a chain a compare
    feeding the block's branch is fused with it, and an instruction
    whose result the next one reads exactly once is fused with that
    reader (the result is still written).  Whole blocks run as chains
    between the steps at which a tick could be observed (the [max_steps]
    limit, a poll point) without counting each unit; a block that
    reaches such a step ticks unit by unit on unfused closures, built on
    its first such visit.

    Produces {!Interp.result} values byte-identical to {!Interp.run} on
    the same program and inputs: identical frequencies and counters,
    identical final array/return state, identical error messages
    ({!Interp.Runtime_error}) and identical {!Interp.Fuel_exhausted}
    step counts, and the same [poll] cadence (at least once every 1024
    executed units).  The differential suites ([test/test_compile.ml],
    the QCheck property in [test/test_fuzz.ml]) and the [interp] bench
    section enforce this equivalence. *)

val exec :
  ?max_steps:int ->
  ?poll:(unit -> unit) ->
  ?inputs:(string * int array) list ->
  Compile.t ->
  Interp.result
(** Runs an already-compiled program.  Parameters and exceptions exactly
    as {!Interp.run}.  Emits the same [profile.*] counters; does not open
    a span (callers that want the [profile.run] span use {!run}). *)

val run :
  ?max_steps:int ->
  ?poll:(unit -> unit) ->
  ?inputs:(string * int array) list ->
  Hypar_ir.Cdfg.t ->
  Interp.result
(** [compile] + [exec] under the same [profile.run] span the tree-walker
    emits, so [--stats] output is backend-independent. *)
