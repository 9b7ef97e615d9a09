(** Whole-program function inlining.

    The paper's CDFG covers one flat procedure (the code handed to the
    reconfigurable hardware), so after type checking every call in [main]
    is inlined — recursively, with locals renamed apart, scalar arguments
    bound to fresh temporaries and array parameters substituted by the
    caller's array names.  Recursion is rejected. *)

exception Recursive of string
(** Raised (with the offending function name) if the call graph is
    cyclic. *)

val program : Ast.program -> Ast.program
(** The same program with [main]'s body fully inlined (other functions
    are dropped). The input must have passed {!Typecheck.check}. *)

val source_name : string -> string
(** The source name of a register the inliner renamed apart: [x__3] is
    [x]; a name without a [__N] suffix is returned as is. *)
