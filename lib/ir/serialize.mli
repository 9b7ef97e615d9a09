(** Textual serialisation of CDFGs (an s-expression format).

    The authors' framework passed SUIF IR files between its tools; this
    module plays that role: a CDFG can be dumped after frontend +
    optimisation and re-loaded by any later stage (analysis, mapping,
    partitioning) without recompiling the source.  The format round-trips
    exactly: [of_string (to_string g)] reproduces the same blocks,
    terminators and array declarations. *)

exception Parse_error of string

val to_string : Cdfg.t -> string
(** Serialise, including array initialisers.  The text is written
    straight into one buffer — no intermediate s-expression, integers
    by a digit writer, strings copied whole unless they hold a quote or
    a backslash to escape — and is the canonical form that
    [Hypar_explore.Cache.digest_of_cdfg] hashes, so its bytes are fixed:
    the test suite pins them against the tree writer it replaced.  An
    exploration computes that digest only when a checkpoint key or its
    JSON report reads it. *)

val of_string : string -> Cdfg.t
(** Parse back. Raises {!Parse_error} on malformed input and
    {!Cfg.Malformed} on structurally invalid graphs. *)
