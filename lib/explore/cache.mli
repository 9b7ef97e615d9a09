(** Memo cache for point evaluations.

    Within one run every point shares one workload, so the cache is keyed
    by the platform configuration alone: the {!Space.point} record, whose
    fields {!Space.point_key} maps one-to-one.  A sweep whose axes repeat
    a configuration evaluates it once; the hit/miss counters are surfaced
    in the exploration summary.

    {!key} pairs the workload with the configuration — the CDFG digest
    (MD5 of the canonical serialisation, so two compilations of the same
    source share a digest) and the point key.  It names a point in the
    checkpoint journal only, so it is built only when a checkpoint is
    written or read back.

    The table is used from the coordinating domain only — the parallel
    evaluator deduplicates points against it {e before} fanning out, so
    no synchronisation is needed. *)

type stats = { hits : int; misses : int }

type 'a t

val create : unit -> 'a t

val digest_of_cdfg : Hypar_ir.Cdfg.t -> string
(** Hex MD5 of {!Hypar_ir.Serialize.to_string}. *)

val key : digest:string -> Space.point -> string
(** ["<digest>|<point_key>"], the checkpoint key of a point. *)

val find : 'a t -> Space.point -> 'a option
(** Counts a hit when the point is present, a miss otherwise. *)

val add : 'a t -> Space.point -> 'a -> unit

val stats : 'a t -> stats
