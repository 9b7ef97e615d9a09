(** Pareto analysis over integer objective vectors (minimisation).

    [a] dominates [b] when it is no worse on every objective and strictly
    better on at least one; points with {e equal} vectors do not dominate
    each other, so ties (and cache-shared duplicate configurations) all
    stay on the frontier. *)

val frontier_flags : ('a -> int array) -> 'a array -> bool array
(** Per-index membership of the Pareto frontier; raises
    [Invalid_argument] on objective vectors of mismatched lengths.  An O(n²) pairwise
    scan that allocates only the objective vectors and the flags: each
    comparison is a plain loop that stops at the first worse objective,
    and each point's scan stops at its first dominator. *)

val best_by : ('a -> int) -> 'a array -> int option
(** Index of the minimum (first on ties); [None] on an empty array. *)
