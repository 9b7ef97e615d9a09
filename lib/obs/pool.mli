(** Multicore fan-out over the stdlib [Domain] API (no domainslib). *)

val workers : jobs:int -> int -> int
(** [workers ~jobs n] is how many workers {!map} uses for [n] elements:
    [min jobs n], capped at [Domain.recommended_domain_count ()] (more
    domains than cores only contend for them), and at least 1. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] applies [f] to every element on
    [workers ~jobs (length xs)] workers, the calling domain being one of
    them, so one fewer domain is spawned.  A single worker runs
    sequentially in the calling domain (no domain is spawned).

    Work is dealt round-robin by index: worker [d] owns indices [d],
    [d + workers], ...  Every worker writes only its own slots of the
    result array, so no locking is needed and the result is in input
    order regardless of scheduling: [map ~jobs:n] is observationally
    identical to [map ~jobs:1] for a pure [f].

    If [f] raises, the worker stops and every domain is still joined;
    then the exception of the lowest-numbered worker that raised is
    re-raised (the caller is worker 0). *)
