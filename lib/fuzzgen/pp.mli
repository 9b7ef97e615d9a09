(** Mini-C pretty-printer with a re-parse guarantee.

    [program ast] renders an AST as concrete Mini-C syntax such that
    [Hypar_minic.Parser.parse_program (program ast)] yields [ast] again,
    modulo source positions — the property the generator's round-trip
    oracle and the shrinker's re-compilation both rely on.  Compound
    expressions are fully parenthesised, so no precedence reasoning is
    needed; statement sugar (compound assignment, [++]) is never
    emitted, only the canonical forms it desugars to.

    Precondition: expression-position [Num] literals are non-negative
    (the parser reads [-5] as [Unary (Neg, Num 5)]); the generator and
    shrinker only produce such ASTs.  Global initialisers may be
    negative. *)

val program : Hypar_minic.Ast.program -> string
