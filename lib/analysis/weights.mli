(** Static operation-weight model (paper §3.1).

    "Since operations in a basic block do not have a uniform cost, a
    weighted sum is calculated and aggregated at the basic block level...
    we give a weight equal to 1 for the ALU operations and a weight equal
    to 2 for the multiplication ones."  Weights are per operation class
    and fully parametric. *)

type t = {
  alu : int;
  mul : int;
  div : int;
  mem : int;  (** memory accesses are counted, per the paper *)
  move : int;
}

val paper : t
(** The paper's weights: ALU 1, MUL 2; memory accesses and moves count 1,
    divisions 4 (absent from the benchmark DFGs). *)

val bb_weight : t -> Hypar_ir.Dfg.t -> int
(** The paper's [bb_weight]: weighted operation count of a block's DFG. *)
