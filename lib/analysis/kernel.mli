(** Kernel extraction and ordering (paper §3.1, Eq. 1).

    Combines the dynamic profile with the static weight model:
    [total_weight = exec_freq * bb_weight].  Kernels are the blocks inside
    loops that were actually executed; they are returned in decreasing
    total weight, the order in which the partitioning engine moves them to
    the coarse-grain hardware. *)

type entry = {
  block_id : int;
  label : string;
  exec_freq : int;
  bb_weight : int;
  total_weight : int;
  loop_depth : int;
  is_kernel : bool;
}

type t = {
  weights : Weights.t;
  entries : entry array;  (** one per block, in block-id order *)
  kernels : entry list;  (** decreasing total weight; ties by block id *)
}

val analyse :
  ?weights:Weights.t -> Hypar_ir.Cdfg.t -> Hypar_profiling.Profile.t -> t
(** Runs the static analysis against a collected profile
    (default weights: {!Weights.paper}). *)

val top : t -> int -> entry list
(** The [n] heaviest kernels. *)
