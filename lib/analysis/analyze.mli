(** IR-level diagnostics over the CDFG ([hypar analyze]).

    Where {!Lint} inspects the Mini-C source, this engine inspects the
    lowered CDFG, so it also covers hand-written or machine-generated
    [.ir] files (the decompilation frontends of the
    partitioning-for-binaries line of work) that never had a source
    program.  Every rule is a client of the {!Hypar_ir.Dataflow} solver:

    - [A001] [use-before-def] — a register read on some path before any
      definition (complement of the {!Hypar_ir.Dataflow.Assigned}
      must-analysis);
    - [A002] [dead-store] — a computed value never read afterwards
      ({!Hypar_ir.Dataflow.Liveness});
    - [A003] [unreachable-block] — a block no path from the entry
      reaches;
    - [A004] [constant-branch] — a branch both of whose arms coincide, or
      whose condition the {!Hypar_ir.Dataflow.Consts} lattice proves
      constant;
    - [A005] [possible-out-of-bounds] — an array access whose index
      interval escapes [[0, size-1]] (interval analysis on
      {!Range} arithmetic, with branch-condition narrowing);
    - [A006] [possible-div-by-zero] — a division or remainder whose
      divisor interval contains zero;
    - [A007] [unhoisted-invariant-load] — a loop-invariant load of an
      array no instruction in the loop stores to (the optimiser's LICM
      would hoist it);
    - [A008] [write-only-variable] — a register defined somewhere but
      never read anywhere.

    Findings are positioned by basic block id and instruction index
    (there may be no source file to point into).  Analyze supplies only
    its code table, the severity word [note] and these positions;
    {!Diagnostics} does the lookups, sorting and rendering it shares
    with {!Lint}. *)

type code =
  | Use_before_def
  | Dead_store
  | Unreachable_block
  | Constant_branch
  | Possible_out_of_bounds
  | Possible_div_by_zero
  | Unhoisted_invariant_load
  | Write_only_variable

type finding = {
  code : code;
  block : int;  (** basic-block id; for A003 the block itself *)
  index : int;  (** instruction index in the block; -1 = the terminator *)
  message : string;
}

val kind : (code, finding) Diagnostics.kind
(** Analyze's code table and positions, as [hypar analyze] renders and
    gates them. *)

val check : Hypar_ir.Cdfg.t -> finding list
(** Run every rule, sorted by (block, index, code).  The input is
    typically the {e unoptimised} CDFG: the optimiser deliberately
    removes most of what A002/A004/A007 report. *)

val register_ranges : Hypar_ir.Cdfg.t -> Range.report list
(** Per-register value ranges from the same interval solve A005/A006
    run on: each register's range is the join of the values its
    definitions get, over every definition the solve reaches.  One
    report per such register, ordered by id.  [hypar ranges] and the
    {!Lint} range rules (W006-W008) read it. *)
