(** Fixed-capacity mutable bitsets over [0 .. n-1].

    The dense-id lattices ({!Dataflow.Avail}, {!Dataflow.Liveness}) keep
    one set per block and build each new fact in a fresh copy; every
    binary operation expects both sets to come from the same universe
    (the same [n] at {!create}). *)

type t

val create : int -> t
(** [create n] is the empty set over [0 .. n-1]. *)

val copy : t -> t
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val diff_into : t -> t -> unit
(** [diff_into s k] removes every element of [k] from [s]. *)

val union_into : t -> t -> unit
(** [union_into s g] adds every element of [g] to [s]. *)

val inter : t -> t -> t
(** A fresh set: the intersection of the two. *)

val union : t -> t -> t
(** A fresh set: the union of the two. *)

val cardinal : t -> int

val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Elements in increasing order. *)
