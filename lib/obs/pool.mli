(** Multicore fan-out over the stdlib [Domain] API (no domainslib). *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] applies [f] to every element.  [jobs <= 1] or fewer
    than two elements run sequentially in the calling domain (no domain
    is spawned); otherwise [min jobs (length xs)] workers share the
    work, the calling domain being one of them, so [min jobs (length
    xs) - 1] domains are spawned.

    Work is dealt round-robin by index: worker [d] owns indices [d],
    [d + workers], ...  Every worker writes only its own slots of the
    result array, so no locking is needed and the result is in input
    order regardless of scheduling: [map ~jobs:n] is observationally
    identical to [map ~jobs:1] for a pure [f].

    If [f] raises, the worker stops and every domain is still joined;
    then the exception of the lowest-numbered worker that raised is
    re-raised (the caller is worker 0). *)
