(** The benchmark's statistics: the summaries every reported timing and
    every spread check goes through. *)

val median : float list -> float
(** Middle value; the mean of the two middle values for an even count.
    Raises [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] by the same rule as Python's
    [statistics.quantiles(values, n=4)] (the default "exclusive" method),
    the rule run-to-run spreads of this benchmark are judged by.  Needs at
    least two values. *)

type percentile = {
  value : float;
  samples : int;  (** how many values the percentile was taken over *)
  above : int;  (** how many values rank above it *)
}

val percentile : float -> float list -> percentile
(** [percentile p values] is the nearest-rank [p]-th percentile: the
    value at rank [ceil (p/100 * n)] of the sorted values.  [above] is
    [n] minus that rank; a percentile is reportable only with at least
    {!min_above} values above it. *)

val min_above : int
(** 10: the fewest samples that must rank above a reported percentile. *)

val min_samples : float -> int
(** [min_samples p] is the smallest sample count for which the [p]-th
    percentile has {!min_above} values above it. *)

val geomean : float list -> float
(** Geometric mean.  Raises [Invalid_argument] on an empty list or a
    non-positive value. *)
