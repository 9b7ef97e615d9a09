(** Classic scalar optimisation passes over the CDFG.

    The frontend's lowering is deliberately naive (one temporary per
    expression node); these passes clean the result up before analysis and
    mapping, playing the role of the SUIF/MachineSUIF optimisation passes
    the authors relied on.  All passes are semantics-preserving.  The
    local passes rewrite one block at a time; the [global_*] passes seed
    the same rewrites with facts from a {!Dataflow} solve, so values
    propagate across block boundaries (dead-code elimination was already
    global via {!Live}). *)

val verify_passes : bool ref
(** Global default for pass-boundary IR verification ({!Verify.check}
    after every pass inside {!simplify} and {!optimize}).  Initialised
    from the [HYPAR_VERIFY_IR] environment variable ([1]/[true]/[yes]/
    [on]); the test runner turns it on for the whole suite, the CLI
    exposes it as [--verify-ir]. *)

(** A verified pass raises {!Verify.Failed} with the pass name as the
    context on any violation.  Every pass below returns its input itself
    ([==]) when it changes nothing.  Such an output is not verified
    again, and the size gauges and shrink counters are left alone; the
    [ir.pass.NAME] span is still recorded.  A pass that changes some
    blocks returns every other block of its input physically, and when
    it changes no label or terminator the output keeps the input's CFG
    edges and loop depths (see {!Cdfg.with_blocks}). *)

val const_fold : Cdfg.t -> Cdfg.t
(** Propagates constants within each block and folds operations whose
    operands are all constant (divisions by a constant zero are left in
    place). *)

val copy_propagate : Cdfg.t -> Cdfg.t
(** Forwards [Mov] sources to later uses within the block. *)

val algebraic_simplify : Cdfg.t -> Cdfg.t
(** Identity/absorption rewrites and strength reduction within each
    block: [x+0], [x-0], [x*1], [x/1], [x&x], [x|x], [x^x], [x*0],
    [x&0], shifts by 0, multiplication by a power of two (to a shift),
    [min]/[max]/[select] with equal operands, and comparisons of a
    variable with itself. *)

val common_subexpressions : Cdfg.t -> Cdfg.t
(** Local (per-block) common-subexpression elimination: a pure operation
    recomputing an available expression becomes a move from the earlier
    result.  Loads are reused only while no store to the same array
    intervenes; expressions are invalidated when an operand is
    redefined. *)

val dead_code_eliminate : Cdfg.t -> Cdfg.t
(** Removes instructions whose result is never used (backed by global
    liveness); stores and division/remainder instructions are always
    kept. *)

val simplify_cfg : Cdfg.t -> Cdfg.t
(** Control-flow clean-up, to a fixpoint:
    - unreachable blocks are deleted;
    - a jump to an empty forwarding block is threaded past it;
    - a block whose unique successor has no other predecessor is merged
      with it (the entry block keeps its position and label);
    - branches with identical targets become jumps.
    Runs after branch folding leaves dead arms behind. *)

val loop_invariant_motion : Cdfg.t -> Cdfg.t
(** Hoists loop-invariant computations into the loop preheader.

    A pure instruction (no load/store/division) is hoisted from a natural
    loop when: every variable it reads is defined outside the loop (or by
    an instruction already hoisted), its destination has exactly one
    definition in the loop, and the destination is not live into the loop
    header (not loop-carried).  Loads may trap on an out-of-bounds
    index, so they are only hoisted when no store in the loop touches
    their array *and* the loop is guaranteed to execute them whenever it
    runs at all (their block dominates every latch and every exiting
    block) — hoisting a branch-guarded load would introduce a runtime
    error on executions that never take the branch (found by
    [hypar fuzz --unsafe]).  The preheader must be the
    unique out-of-loop predecessor of the header — which the frontend's
    rotated-loop shape guarantees. *)

val global_const_propagate : Cdfg.t -> Cdfg.t
(** Global (conditional) constant propagation: runs {!const_fold}'s
    block rewrite seeded with the {!Dataflow.Consts} facts at each block
    entry.  Constants flow across block boundaries, branches on a
    constant condition fold to jumps, and edges pruned by the constant
    analysis do not pollute the facts of the surviving paths. *)

val global_copy_propagate : Cdfg.t -> Cdfg.t
(** Global copy propagation: {!copy_propagate}'s block rewrite seeded
    with the {!Dataflow.Copies} facts at each block entry, forwarding
    [Mov] sources across block boundaries. *)

val global_cse : Cdfg.t -> Cdfg.t
(** Global common-subexpression elimination: a pure instruction
    recomputing an expression the {!Dataflow.Avail} must-analysis proves
    available on every path becomes a move from the register still
    holding it. *)

val simplify : ?max_rounds:int -> ?verify:bool -> Cdfg.t -> Cdfg.t
(** [const_fold → algebraic_simplify → copy_propagate →
    common_subexpressions → dead_code_eliminate] to a fixpoint (at most
    [max_rounds] rounds, default 8).  With verification on (see
    {!verify_passes}) every constituent pass is verified. *)

val optimize : ?verify:bool -> Cdfg.t -> Cdfg.t
(** The default frontend pipeline: {!simplify} → {!simplify_cfg} → one
    global round ({!global_const_propagate} → {!global_copy_propagate} →
    {!global_cse} → {!simplify} → {!simplify_cfg}) →
    {!loop_invariant_motion} (innermost loops first) → a second global
    round.  With verification on, the input and every pass output that
    differs from its pass's input are verified. *)
