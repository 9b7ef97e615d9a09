(** Backward scalar liveness over the CFG.

    The partitioning engine prices the shared-memory traffic of a kernel
    moved to the coarse-grain data-path (Eq. 2's [t_comm]) from the
    kernel's live-in and live-out scalar sets, which this module
    computes.  The fixpoint is {!Dataflow.Liveness}, bitsets over the
    CFG's register ids; this module exposes the block-level view.  The
    counts read the bitsets directly; the lists name each register by
    the record the CFG gives its id. *)

type t

val analyse : Cfg.t -> t

val live_in : t -> int -> Instr.var list
(** Variables live on entry to the block (sorted by id). *)

val live_out : t -> int -> Instr.var list
(** Variables live on exit from the block (sorted by id). *)

val live_in_count : t -> int -> int
(** [List.length (live_in t i)], without building the list. *)

val defs_live_out : t -> int -> Instr.var list
(** Variables defined inside the block that are live on exit — the values
    the block must publish (its "outputs"; sorted by id). *)

val defs_live_out_count : t -> int -> int
(** [List.length (defs_live_out t i)], without building the list. *)

val use_set : Cfg.t -> int -> Instr.var list
(** Upward-exposed uses of the block (reads before any local def,
    including the terminator's reads). *)
