(** Declarative design-space specification.

    The paper's §4 evaluation is a hand-run exploration over the platform
    axes (A_FPGA, CGC count, array geometry, clock ratio) against a
    timing constraint.  A {!t} makes that grid explicit: one integer axis
    per platform parameter, each written as a comma-separated composition
    of scalars and [lo..hi[:step]] ranges, expanded as a cartesian
    product bounded by [max_points].

    Enumeration order is deterministic and documented — areas outermost,
    then CGC count, rows, cols, clock ratio, and the timing constraint
    innermost — so every consumer (cache, parallel evaluator, renderers)
    sees the same point order. *)

type point = {
  area : int;  (** A_FPGA, usable fine-grain area units *)
  cgcs : int;  (** CGC components in the coarse-grain data-path *)
  rows : int;  (** CGC array rows (chain depth) *)
  cols : int;  (** CGC array columns (chains per CGC) *)
  clock_ratio : int;  (** T_FPGA / T_CGC *)
  timing : int;  (** timing constraint, FPGA cycles *)
}

type t = {
  areas : int list;
  cgcs : int list;
  rows : int list;
  cols : int list;
  clock_ratios : int list;
  timings : int list;
  max_points : int;
}

val default_max_points : int
(** 4096. *)

val make :
  ?areas:int list ->
  ?cgcs:int list ->
  ?rows:int list ->
  ?cols:int list ->
  ?clock_ratios:int list ->
  ?max_points:int ->
  timings:int list ->
  unit ->
  t
(** Defaults: areas [[500; 1500; 5000]], cgcs [[1; 2; 3]], rows [[2]],
    cols [[2]], clock ratios [[3]], {!default_max_points}. *)

val axis_of_string : string -> (int list, string) result
(** Parses an axis: comma-separated scalars and ranges, e.g.
    ["500,1500,5000"], ["1..4"], ["500..5000:500"],
    ["500,1000..3000:1000"].  Duplicates are preserved (the evaluation
    cache deduplicates them).  Errors on malformed integers, non-positive
    steps and descending ranges. *)

val points : t -> (point list, string) result
(** Expands the cartesian product in the documented order.  Errors when
    the space is empty or its number of points exceeds [max_points]. *)

val point_key : point -> string
(** Canonical configuration key, e.g. ["a1500/k2/g2x2/r3/t8000"].  The
    format is stable — the memo cache and its tests rely on it. *)
