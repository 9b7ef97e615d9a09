(** Lattice-parameterised forward/backward data-flow solver over {!Cfg.t}.

    The paper's flow leans on clean CDFGs; SUIF gave the authors global
    data-flow analyses for free.  This module is our equivalent: one
    worklist solver, parameterised by a first-class {!module-type:ANALYSIS}
    module (lattice value, join, transfer), shared by liveness
    ({!Live}), the global optimiser passes in {!Passes}
    (constant/copy propagation, CSE, DCE) and the [hypar analyze]
    diagnostics engine.

    The solver iterates blocks in reverse postorder (postorder for
    backward analyses).  Its worklist is one pending flag per position
    in that order plus a low-water mark, so the pending block earliest
    in the order is always visited next.  It caches block inputs: a
    block whose join-of-predecessors did not change since its last
    visit is not re-transferred.  Blocks unreachable from the entry
    are never visited and keep {!ANALYSIS.init} on both sides.  When the
    {!Hypar_obs} sink is enabled each solve runs under a
    [dataflow.<name>] span and publishes a
    [dataflow.<name>.iterations] counter; a liveness solve that
    {!Liveness.solve} reuses opens no span. *)

type direction = Forward | Backward

type pos = { block : int; index : int }
(** Position of an instruction: dense block id and index in the block. *)

(** One data-flow analysis: a join-semilattice of facts and transfer
    functions over instructions and terminators. *)
module type ANALYSIS = sig
  type t
  (** A lattice fact. *)

  val name : string
  (** Used for spans/counters and error messages. *)

  val direction : direction

  val init : t
  (** Optimistic value assumed for a block not yet visited (the lattice
      bottom for may-analyses, top for must-analyses: [All]-style values
      make intersection joins start optimistically). *)

  val boundary : t
  (** The value holding at the program boundary: at the entry block's
      entry for a forward analysis, after every [Return] terminator for a
      backward one. *)

  val join : t -> t -> t
  val equal : t -> t -> bool

  val transfer : pos -> Instr.t -> t -> t
  (** Fact after (forward) / before (backward) one instruction. *)

  val transfer_term : int -> Block.terminator -> t -> t
  (** Same for the block's terminator; the [int] is the block id. *)

  val transfer_block : (int -> t -> t) option
  (** Optional whole-block transfer [f block v]: the fact on the block's
      output side from the one on its input side, terminator included.
      When given, the solver calls it instead of replaying {!transfer}
      and {!transfer_term} over the block, so a gen/kill analysis can
      apply one precomputed summary per block; it must equal that
      replay.  {!instr_facts} and {!term_fact} still replay. *)

  val edge : (Block.t -> Block.label -> t -> t) option
  (** Optional edge refinement: [f pred target v] filters the fact
      flowing along the CFG edge from block [pred] to the block labelled
      [target] (e.g. pruning the not-taken side of a branch whose
      condition is a known constant, or narrowing an interval under the
      branch condition).  Must only lower the value (return something
      [<= v] in the lattice order) to keep the fixpoint sound. *)

  val widen : (t -> t -> t) option
  (** Optional widening [widen old_input new_input], applied to a block's
      input after it has been visited 4 times.  Required
      for infinite-height lattices (intervals); [None] for finite ones. *)
end

type 'a solution = {
  at_entry : 'a array;  (** fact at each block's entry, in program order *)
  at_exit : 'a array;  (** fact at each block's exit, in program order *)
  iterations : int;  (** block transfers the worklist performed *)
}

val solve : (module ANALYSIS with type t = 'a) -> Cfg.t -> 'a solution
(** Maximal-fixpoint solution.  For a backward analysis [at_exit] is the
    join over successors and [at_entry] the result of transferring the
    block — the program-order naming is kept in both directions. *)

val solve_raw : (module ANALYSIS with type t = 'a) -> Cfg.t -> 'a solution
(** {!solve} without its span and counter, for a client whose own
    [--stats] breakdown must not change with it (the profiling
    interpreter's compiled backend, which must report exactly what the
    tree-walker reports). *)

val refine :
  (module ANALYSIS with type t = 'a) -> Cfg.t -> 'a solution -> 'a solution
(** One decreasing (narrowing) sweep: every block's input is recomputed
    from the current neighbour facts (edge refinement included) and its
    transfer replayed, unconditionally.  A {!solve} result sits at or
    above the least fixpoint, and monotone transfers keep each sweep
    there, so calling this a bounded number of times after a widened
    solve is sound — and recovers the precision (branch-derived bounds in
    particular) that {!ANALYSIS.widen} discarded.  Analyses without
    [widen] gain nothing: {!solve} already reached their fixpoint. *)

val instr_facts :
  (module ANALYSIS with type t = 'a) -> Cfg.t -> 'a solution -> int ->
  (Instr.t * 'a) list
(** Replay the block's transfer to recover per-instruction facts: for a
    forward analysis each instruction is paired with the fact holding
    immediately {e before} it; for a backward analysis with the fact
    holding immediately {e after} it (in program order) — exactly the
    side a rewriting or diagnostic client needs. *)

val term_fact :
  (module ANALYSIS with type t = 'a) -> Cfg.t -> 'a solution -> int -> 'a
(** The fact holding between the last instruction and the terminator. *)

module Int_map : Map.S with type key = int
module Int_set : Set.S with type elt = int

(** {2 The classic global analyses}

    {!Assigned} is a plain module satisfying {!module-type:ANALYSIS}, so
    it can be passed to {!solve} as [(module Assigned)].  The others'
    facts are over one CFG's ids, so their module is built per CFG:
    bitsets for {!Avail} and {!Liveness}, dense arrays of operands for
    {!Consts} and {!Copies}. *)

(** Available expressions (forward, must): pure expressions already
    computed on every path, with the register still holding each result.
    Facts are the (expression, register) pairs of an {!Exprs} table,
    sets of them are bitsets, join is intersection and each block
    transfers as one gen/kill summary.  Loads are available until a store
    to the same array; any expression dies when an operand or its holding
    register is redefined. *)
module Avail : sig
  type avail =
    | All  (** top: unvisited — every expression optimistically available *)
    | Known of Bitset.t  (** the facts of the table that hold *)

  val solve : Exprs.t -> Cfg.t -> avail solution
  (** [Dataflow.solve (analysis tbl cfg) cfg]. *)

  val find : Exprs.t -> int -> avail -> Instr.var option
  (** The register holding an available expression id, if any. *)
end

(** {2 Dense forward environments}

    The facts of {!Consts} and {!Copies}: what each register holds, an
    operand or {!varying}.  Only a register some block reads before
    defining it can carry a fact across a block boundary, so a boundary
    fact is one array over those registers, numbered per CFG; a
    constant fact also holds the value of the branch condition of the
    block it leaves, which the edge rule reads.  A block transfer works
    on one copy of that array; a replay through a block
    ({!instr_facts}, {!term_fact}) also tracks the other registers it
    defines.  A fact says nothing about any other register. *)

type env

type dense =
  | Unreached  (** unvisited, or no execution reaches this point *)
  | Env of env

val varying : Instr.operand
(** What a register with no fact holds: a variable with id [-1]. *)

val seed : dense -> int -> Instr.operand
(** [seed fact vid]: what register [vid] holds, [varying] when nothing
    is known (always, for [Unreached]).  The global passes seed their
    block rewrites with it. *)

(** Constant lattice (forward, conditional): registers with one known
    compile-time value ([Imm n]).  The {!ANALYSIS.edge} hook prunes
    branch edges whose condition is a known constant, so code behind a
    statically decided branch keeps (rather than pollutes) the constant
    facts. *)
module Consts : sig
  type consts = dense = Unreached | Env of env

  val analysis : Cfg.t -> (module ANALYSIS with type t = consts)
  val solve : Cfg.t -> consts solution
  (** [Dataflow.solve (analysis cfg) cfg], with the slots found inside
      the span too. *)

  val find : int -> consts -> int option
end

(** Copy lattice (forward, must): registers currently holding an exact
    copy of another operand ([x = y] or [x = 7]).  A fact dies when
    either side is redefined.  [Unreached] is the unvisited top. *)
module Copies : sig
  val solve : Cfg.t -> dense solution
  val find : int -> dense -> Instr.operand option
end

(** Definite assignment (forward, must): registers assigned on {e every}
    path from the entry — the complement is "possibly read before
    assignment" ([hypar analyze] code A001). *)
module Assigned : sig
  type assigned =
    | All  (** top: unvisited *)
    | Known of Int_set.t

  include ANALYSIS with type t = assigned

  val mem : int -> assigned -> bool
end

(** Liveness (backward, may): registers whose current value may still be
    read.  Facts are bitsets indexed by register id ([vid]; ids are
    dense, [0 .. max vid], as the profiling interpreter's register file
    also assumes), join is union and each block transfers as one
    gen/kill summary: its upward-exposed reads and its defs.  {!Live}
    wraps this into the block-level API the partitioning engine
    consumes. *)
module Liveness : sig
  type live
  (** The ids of the live registers, over one CFG's universe.  Read-only:
      {!solve} shares its facts between callers. *)

  val mem : live -> int -> bool
  val iter : (int -> unit) -> live -> unit
  val cardinal : live -> int

  val to_bitset : live -> Bitset.t
  (** A copy the caller may mutate. *)

  val analysis : Cfg.t -> (module ANALYSIS with type t = live)
  (** The lattice over the register ids of this CFG, with the block
      summaries {!solve} keeps.  Its per-instruction [transfer] copies
      the set (fine for {!instr_facts}); the solver uses the summaries. *)

  val solve : Cfg.t -> live solution
  (** [Dataflow.solve (analysis cfg) cfg], with the lattice built inside
      the span too, paying only for what changed since this domain's
      last summarised CFG.  A block physically ([==]) that CFG's block
      at the same index keeps its summary while the register universe
      stays the same; a CFG whose blocks are all the last solve's
      returns that solve itself, without a span.  The facts of a
      solution are therefore shared: no caller may mutate one. *)
end
