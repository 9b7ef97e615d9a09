(** The error every frontend fails with.

    The Mini-C and bytecode frontends report a failure the same way: a
    1-based source position and a message, raised as {!Error} by their
    [compile_exn] so callers (the CLI and serve) render one located
    [file:line:col: message] diagnostic whichever frontend produced it.
    Both drivers re-export these declarations. *)

type error = { line : int; col : int; msg : string }
(** [line] and [col] are 0 when the failure has no source position. *)

exception Error of { name : string option; err : error }
(** [name] is the [?name] the caller compiled under, when any.  A
    [Printexc] printer renders it as {!message}. *)

val string_of_error : error -> string
(** [line:col: msg]. *)

val message : string option -> error -> string
(** [name:line:col: msg], or [line:col: msg] without a name. *)
