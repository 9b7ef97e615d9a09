(** Static semantic checks for Mini-C programs.

    Beyond scope/arity checking, this pass enforces the structural
    restrictions that keep the function inliner simple and the lowering
    faithful to the paper's CDFG model:

    - no recursion is allowed (checked later by {!Inline}), and a function
      that returns a value must do so in exactly one [return], as the last
      statement of its body; [void] functions contain no [return];
    - array arguments must be bare array names (global arrays or array
      parameters);
    - [const] arrays cannot be stored to;
    - a [main] function with no parameters must exist (the program entry
      point lowered to the CDFG). *)

type error = { pos : Token.pos; msg : string }

val check : Ast.program -> (unit, error) result
