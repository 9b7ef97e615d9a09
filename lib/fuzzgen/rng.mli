(** Deterministic pseudo-random stream for the fuzzing subsystem.

    A SplitMix64 generator: the same seed always yields the same stream,
    on every platform and for every [--jobs] value — determinism of the
    whole fuzzer reduces to determinism of this module.  Unlike
    [Random.State] there is no global state and no self-init: every
    stream is rooted in an explicit integer seed, and {!derive} maps a
    (campaign seed, program index) pair to an independent per-program
    seed so that workers can generate program [i] without having
    consumed programs [0..i-1]. *)

type t

val create : int -> t
(** A fresh stream rooted at [seed].  Equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] draws a uniform value in [\[0, bound)].  [bound <= 1]
    yields [0] without consuming the stream's state irregularly. *)

val range : t -> int -> int -> int
(** [range t lo hi] draws from the inclusive interval [\[lo, hi\]]. *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)

val derive : seed:int -> int -> int
(** [derive ~seed index] is the per-program seed of program [index] in a
    campaign rooted at [seed]: a non-negative value that depends on both
    arguments but not on any generator state, so any worker can compute
    it for any index. *)
