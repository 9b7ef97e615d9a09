(** One-call bytecode frontend: `.hbc` text to CDFG.

    The mirror of [Hypar_minic.Driver] for the second frontend: both
    fail through {!Hypar_ir.Frontend}, so the CLI and serve render
    bytecode diagnostics exactly like Mini-C ones. *)

type error = Hypar_ir.Frontend.error = { line : int; col : int; msg : string }

exception Frontend_error of { name : string option; err : error }
(** Raised by {!compile_exn} for every frontend failure — parse error or
    CFG-recovery diagnostic — so callers can render a located
    [file:line:col: message].  It is {!Hypar_ir.Frontend.Error} under
    the frontend's name. *)

val compile :
  ?name:string ->
  ?optimize:bool ->
  ?verify_ir:bool ->
  string ->
  (Hypar_ir.Cdfg.t, error) result
(** [compile src] parses and recovers the CDFG.  With [optimize]
    (default [true]) the full {!Hypar_ir.Passes.optimize} pipeline runs
    on the result — decompiled IR is exactly the copy/const-heavy input
    the global passes exist to clean up, so this default matters more
    than for Mini-C.  With [verify_ir] (default
    {!Hypar_ir.Passes.verify_passes}) the recovered CDFG and every pass
    output are checked by {!Hypar_ir.Verify}. *)

val compile_exn :
  ?name:string -> ?optimize:bool -> ?verify_ir:bool -> string -> Hypar_ir.Cdfg.t
(** Like {!compile} but raises {!Frontend_error} on failure. *)
