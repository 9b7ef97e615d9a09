(** Profiles: the dynamic-analysis product handed to the analysis step.

    Combines the interpreter's per-block execution frequencies with static
    per-block operation counts — the two ingredients of the paper's Eq. 1
    ([total_weight = exec_freq * bb_weight]). *)

type block_stats = {
  block_id : int;
  label : string;
  freq : int;  (** dynamic execution count, the paper's [exec_freq] *)
  static_ops : int;  (** instructions in the block *)
  dynamic_ops : int;  (** freq * static_ops *)
  loads : int;  (** dynamic load count *)
  stores : int;  (** dynamic store count *)
  loop_depth : int;
}

type t = {
  cdfg_name : string;
  blocks : block_stats array;
  edges : ((int * int) * int) list;  (** CFG edge traversal counts *)
  total_instrs_executed : int;
  return_value : int option;
}

type backend = [ `Compiled | `Tree ]
(** Execution backend of the profiling interpreter.  [`Compiled]
    (default) flattens the CDFG once ({!Compile}) and executes the flat
    program ({!Exec}); [`Tree] is the original tree-walking oracle
    ({!Interp.run}).  Both produce byte-identical {!Interp.result}s. *)

val run :
  ?backend:backend ->
  ?max_steps:int ->
  ?poll:(unit -> unit) ->
  ?inputs:(string * int array) list ->
  Hypar_ir.Cdfg.t ->
  Interp.result
(** Executes the program on the selected backend (default: [`Tree] when
    the [HYPAR_INTERP] environment variable is ["tree"], [`Compiled]
    otherwise, which [hypar serve] honours too).  Parameters and
    exceptions as {!Interp.run}. *)

val of_result : Hypar_ir.Cdfg.t -> Interp.result -> t
(** Assembles a profile from an existing interpreter run. *)

val freq : t -> int -> int
(** Execution frequency of a block id (0 when never executed). *)

val hottest : ?limit:int -> t -> block_stats list
(** Blocks sorted by decreasing [dynamic_ops] (default all). *)

val edge_freq : t -> int -> int -> int
(** Traversal count of the CFG edge (src, dst); 0 when never taken. *)

val pp : Format.formatter -> t -> unit
