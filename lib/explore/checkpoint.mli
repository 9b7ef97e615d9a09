(** Checkpoint codec for the hardened explore driver.

    Each completed point is journalled as one line —
    [(cache key, outcome)] — through the crash-safe
    {!Hypar_resilience.Journal}.  Decoding is exact: every integer field
    round-trips verbatim, the status is an {!Hypar_core.Engine.status_key},
    and the two derived fields ([met], [reduction]) are recomputed from
    the stored status and totals by {!Hypar_core.Engine.status_met} and
    {!Hypar_core.Engine.reduction_of_totals}, so a resumed sweep renders
    byte-identically to an uninterrupted one.  The "Cycles in CGC"
    column repeats the final times' [t_coarse_cgc]; a line where the two
    disagree is undecodable.  Undecodable entries (from an older format,
    or hand-edited) are silently dropped, like torn journal lines. *)

val header : string
(** Journal header identifying explore checkpoints. *)

val encode : key:string -> (Eval.metrics, string) result -> string
(** One journal payload for a completed point. *)

val decode : string -> (string * (Eval.metrics, string) result) option

val load :
  string -> ((string * (Eval.metrics, string) result) list, string) result
(** All decodable entries of a checkpoint file, in write order; a
    missing file is [Ok []]. *)
