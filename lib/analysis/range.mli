(** Interval arithmetic for value-range (width) checks.

    Declared bit-widths drive the fine-grain area model and the
    operation-weight model, so widths that silently overflow would skew
    every downstream number.  {!Analyze.register_ranges} infers a
    conservative [lo, hi] interval for every register on this arithmetic
    and reports it against the declared signed width as a {!report}. *)

type interval = { lo : int; hi : int }

val top : interval
(** The widened "unknown" interval (large symmetric bounds, safely inside
    native-int arithmetic). *)

val width_range : int -> interval
(** The representable signed range of a bit-width: [[-2^(w-1), 2^(w-1)-1]]. *)

(** {2 Interval arithmetic}

    Bounds are clamped to [top]'s, and products saturate there, so no
    operation overflows native ints.  The {!Analyze} interval solve and
    the {!Lint} rules both evaluate on it. *)

val const : int -> interval
val join : interval -> interval -> interval
val add : interval -> interval -> interval
val sub : interval -> interval -> interval
val mul : interval -> interval -> interval
val neg : interval -> interval

val contains : interval -> int -> bool
(** [contains i n] — is [n] inside [[i.lo, i.hi]]? *)

val eval_bin : Hypar_ir.Types.alu_op -> interval -> interval -> interval
(** Conservative interval result of a binary ALU operation (comparisons
    evaluate to [[0, 1]]). *)

val eval_un : Hypar_ir.Types.un_op -> interval -> interval

val div_iv : interval -> interval -> interval
(** Division/remainder: the magnitude of the result never exceeds the
    dividend's. *)

(** One register's inferred range against its declared width. *)
type report = {
  var : Hypar_ir.Instr.var;
  range : interval;
  declared : interval;  (** from the variable's width *)
  fits : bool;  (** [range] lies inside [declared] *)
}

val pp_interval : Format.formatter -> interval -> unit
val pp_report : Format.formatter -> report -> unit
(** One [hypar ranges] line:
    [name#id width=W inferred=[lo, hi] declared=[lo, hi] ok]. *)
