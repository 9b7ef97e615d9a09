(** Scratch maps from register id to a value, one per domain.

    The optimizer's block rewrites and {!Exprs.build} keep per-register
    state in arrays indexed by register id ([vid]) rather than in hash
    tables.  A map is emptied in O(1) by opening a new epoch: an entry
    holds only while its stamp is the current epoch, so one pair of
    arrays serves every block of every call on a domain, and grows to the
    largest register id it has seen.  Register ids are dense
    ([0 .. max vid]), as liveness and the profiling interpreter assume. *)

type 'a t

type 'a key = 'a t Domain.DLS.key

val per_domain : 'a -> 'a key
(** [per_domain absent]: a map per domain, reading [absent] for a
    register with no entry. *)

val fresh : 'a key -> 'a t
(** This domain's map, emptied.  A caller must be done with the map it
    got from the previous [fresh] on the same key. *)

val mem : 'a t -> int -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit

val push : 'a list t -> int -> 'a -> unit
(** [push t v x] conses [x] onto [v]'s list. *)
