(** CDFG interpreter — the dynamic-analysis substrate.

    The paper gathers per-basic-block execution frequencies by compiling
    Lex-instrumented source and running it on typical inputs.  Here the
    lowered CDFG itself is executed: each block's visit count is the
    paper's [exec_freq], and the final array/return state doubles as a
    functional oracle for the benchmark applications. *)

exception Runtime_error of string
(** Division by zero, out-of-bounds access, read of an undefined scalar
    or store to a const array. *)

exception Fuel_exhausted of { steps : int }
(** The budget of [?max_steps] ran out after [steps] executed units
    (instructions + blocks).  Every exhaustion raises this, the default
    budget's safety stop included, so it can be caught and handled (e.g.
    by the hardened explore driver's per-point budget). *)

val default_max_steps : int
(** [400_000_000]: the budget of a run that names none and the cap of
    one that names more, on both backends — a safety stop against
    non-terminating programs that no caller-supplied budget lifts. *)

type result = {
  exec_freq : int array;  (** per-block visit counts *)
  mem_reads : int array;  (** per-block dynamic load counts *)
  mem_writes : int array;  (** per-block dynamic store counts *)
  edge_freq : ((int * int) * int) list;  (** CFG edge traversal counts *)
  instrs_executed : int;
  blocks_executed : int;
  return_value : int option;
  arrays : (string * int array) list;  (** final contents, including ROMs *)
}

val run :
  ?max_steps:int ->
  ?poll:(unit -> unit) ->
  ?inputs:(string * int array) list ->
  Hypar_ir.Cdfg.t ->
  result
(** Executes the program from its entry block.

    [inputs] preloads (non-const) arrays before execution; shorter inputs
    fill the array prefix.  [max_steps] (default {!default_max_steps},
    capped at it) bounds the number of executed instructions + blocks.

    [poll] is a cooperative cancellation hook: it is invoked at least
    once every 1024 executed units and may raise to abort the run —
    this is how [hypar serve] enforces per-request wall-clock deadlines
    without a watchdog thread.  The exception propagates unchanged.

    @raise Runtime_error on the conditions above.
    @raise Fuel_exhausted when [max_steps] runs out. *)

val array_exn : result -> string -> int array
(** Final contents of a named array. Raises [Not_found]. *)
