(** Source-level diagnostics for Mini-C programs.

    A static pre-analysis of the kernels before they enter the Figure-2
    flow: purely syntactic rules run on the parsed AST (so they work even
    on programs the semantic checks reject), and value-range rules run on
    the unoptimised lowered CDFG through {!Analyze.register_ranges},
    mapped back to source declarations by register name.

    Every diagnostic carries a stable code usable in CI gates
    ([hypar lint --deny CODE]):

    - [W001] [unused-variable] — a declared variable is never read;
    - [W002] [unused-parameter] — a function parameter is never read;
    - [W003] [dead-assignment] — an assigned value is overwritten or
      falls out of scope without ever being read;
    - [W004] [unreachable-code] — a statement after a [return] or an
      infinite loop, or a branch/loop body a constant condition disables;
    - [W005] [constant-condition] — an [if]/loop/ternary condition that
      folds to a constant;
    - [W006] [possible-div-by-zero] — the inferred range of a [/] or [%]
      right operand includes zero;
    - [W007] [shift-out-of-range] — a shift amount that may be negative
      or exceed 31;
    - [W008] [width-overflow] — a declared register whose inferred value
      range escapes its declared bit-width ({!Analyze.register_ranges});
    - [W009] [induction-write] — a [for] body writes the loop's own
      induction variable.

    Lint supplies only its code table, the severity word [warning] and
    [line:col] positions; {!Diagnostics} does the lookups, sorting and
    rendering it shares with {!Analyze}. *)

type code =
  | Unused_variable
  | Unused_parameter
  | Dead_assignment
  | Unreachable_code
  | Constant_condition
  | Division_by_zero
  | Shift_out_of_range
  | Width_overflow
  | Induction_write

type diagnostic = {
  code : code;
  line : int;  (** 1-based; 0 when no source position exists *)
  col : int;
  message : string;
}

val kind : (code, diagnostic) Diagnostics.kind
(** Lint's code table and positions, as [hypar lint] renders and gates
    them. *)

val check : ?name:string -> string -> (diagnostic list, string) result
(** Parse the source and run every rule; the range-powered rules
    (W006–W008) additionally need the program to typecheck and lower, and
    are skipped (silently) when it does not.  [Error] only on lex/parse
    failure, with a [line:col: message] string. *)
