(** The expression table of one CFG: dense ids for its pure expressions
    and for the (expression, holding register) facts CSE reasons about.

    Global CSE reads one table: the {!Dataflow.Avail} lattice and the
    rewrite {!Passes.global_cse}; the local
    {!Passes.common_subexpressions} uses only the keys, one block at a
    time.  Building the table hashes each instruction's structural
    {!key} once, from its ints alone; from then on an instruction is
    a {!step} — an expression id, the fact it generates and a
    precomputed kill mask — and transferring a set of facts over it is
    two or three word-wise bitset operations.

    A fact [(e, r)] means "register [r] holds the value of expression
    [e]".  Kill masks are computed once per table:
    - per register, indexed by register id: the facts that read it or
      are held in it (a redefinition invalidates both);
    - per array, indexed by a dense array id: its load facts (a store
      invalidates them);
    - per expression: every fact of that expression (a new holder
      replaces the old one). *)

type atom = Reg of int  (** register id *) | Imm of int

(** A pure expression, structurally: operands of commutative operations
    ([add and or xor eq ne min max mul]) in one canonical order, so
    [a + b] and [b + a] share a key. *)
type key =
  | Bin of Types.alu_op * atom * atom
  | Mul of atom * atom
  | Un of Types.un_op * atom
  | Select of atom * atom * atom
  | Load of string * atom

val key : Instr.t -> key option
(** The key of a pure instruction ([Bin], [Mul], [Un], [Select],
    [Load]); [None] for the others. *)

val key_equal : key -> key -> bool
(** Structural equality of keys, without polymorphic comparison. *)

val reads_reg : key -> int -> bool
(** [reads_reg k vid]: is register [vid] an operand of [k]? *)

val iter_regs : (int -> unit) -> key -> unit
(** The register operands of a key, in operand order (a register read
    twice is visited twice). *)

type t

type step = private {
  expr : int;  (** the instruction's expression id, or [-1] *)
  gen : int;
      (** the fact it makes true — its expression held in its
          destination — or [-1] (no expression, or one that reads its own
          destination, like [x = x + 1]) *)
  kill : Bitset.t;
      (** the facts its definition (or store) invalidates; shared, never
          mutate *)
}

val build : Cfg.t -> t
(** One pass over the CFG's instructions interns every expression and
    fact; a second builds the kill masks and the per-instruction steps. *)

val expr_count : t -> int
(** Expression ids are [0 .. expr_count t - 1]. *)

val fact_count : t -> int
(** Size of the fact universe: sets of facts are [Bitset.create
    (fact_count t)]. *)

val step : t -> int -> int -> step
(** [step t block index]: the instruction at that position of the CFG the
    table was built from. *)

val fact_expr : t -> int -> int
val fact_reg : t -> int -> Instr.var

val expr_facts : t -> int -> int list
(** Every fact of an expression: the kill mask a new holder of it
    applies, in sparse form. *)

val holder : t -> int -> Bitset.t -> Instr.var option
(** [holder t e s]: the register holding expression [e] in the fact set
    [s] (at most one does, see {!apply}). *)

val apply : t -> step -> Bitset.t -> unit
(** [apply t st s] transfers the fact set [s] over one instruction in
    place: [s := (s \ kill) ∪ gen], where a generated fact also kills
    every other fact of its expression — each expression keeps at most
    one holder. *)

val facts : t -> Bitset.t -> (key * Instr.var) list
(** A fact set read back as (expression, register) pairs. *)
