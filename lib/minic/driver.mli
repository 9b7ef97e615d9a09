(** One-call frontend: source text to CDFG. *)

type error = Hypar_ir.Frontend.error = { line : int; col : int; msg : string }

exception Frontend_error of { name : string option; err : error }
(** The single typed error raised by {!compile_exn}: every frontend
    failure — lexer, parser, type checker, inliner, lowering — surfaces
    as this exception so callers (the CLI in particular) can render a
    located [file:line:col: message] diagnostic instead of a backtrace.
    It is {!Hypar_ir.Frontend.Error} under the frontend's name. *)

val parse : string -> (Ast.program, error) result
(** [parse src] lexes and parses a Mini-C program, reporting a lexer or
    parser error at its position. *)

val compile_ast :
  ?name:string ->
  ?simplify:bool ->
  ?verify_ir:bool ->
  Ast.program ->
  (Hypar_ir.Cdfg.t, error) result
(** {!compile} on an already parsed program: type checks, inlines, lowers
    and (with [simplify]) optimises it. *)

val compile :
  ?name:string ->
  ?simplify:bool ->
  ?verify_ir:bool ->
  string ->
  (Hypar_ir.Cdfg.t, error) result
(** [compile src] is {!parse} followed by {!compile_ast}: it lexes,
    parses, type checks, inlines and lowers a Mini-C program.  With
    [simplify] (default [true]) the optimisation pipeline
    ({!Hypar_ir.Passes.optimize}: clean-up passes + loop-invariant code
    motion) runs on the result.  With [verify_ir] (default
    {!Hypar_ir.Passes.verify_passes}) the lowered CDFG and every pass
    output are checked by {!Hypar_ir.Verify}, raising
    {!Hypar_ir.Verify.Failed} on a broken invariant. *)

val compile_exn :
  ?name:string -> ?simplify:bool -> ?verify_ir:bool -> string -> Hypar_ir.Cdfg.t
(** Like {!compile} but raises {!Frontend_error} on failure. *)
