(** Shared primitive types of the HYPAR intermediate representation.

    Operations are split along the axis the paper cares about: ALU-class
    word-level operations (weight 1 by default), multiplications (weight 2),
    divisions (supported by the IR but absent from the benchmark DFGs, as in
    the paper), memory accesses, and register moves. *)

type width = int
(** Bit-width of a value (metadata for the area model; the interpreter
    computes on native integers). *)

type alu_op =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Shl  (** logical shift left *)
  | Shr  (** logical shift right *)
  | Ashr (** arithmetic shift right *)
  | Lt
  | Le
  | Eq
  | Ne
  | Gt
  | Ge
  | Min
  | Max

type un_op = Neg | Not | Abs

type op_class =
  | Class_alu  (** ALU-type arithmetic/logic/comparison *)
  | Class_mul  (** multiplication *)
  | Class_div  (** division / remainder *)
  | Class_mem  (** shared-memory load/store *)
  | Class_move (** register move / select *)

val string_of_alu_op : alu_op -> string
val string_of_un_op : un_op -> string
val string_of_op_class : op_class -> string

val eval_alu_op : alu_op -> int -> int -> int
(** [eval_alu_op op a b] computes the operation on native integers.
    Comparisons yield 0/1; shifts clamp their amount to [0, 62]. *)

val clamp_shift : int -> int
(** The shift amount {!eval_alu_op} actually applies: [n] clamped to
    [0, 62]. *)

val eval_un_op : un_op -> int -> int

val all_alu_ops : alu_op list
val all_un_ops : un_op list
