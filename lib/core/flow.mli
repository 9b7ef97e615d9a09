(** One-call driver for the whole prototype framework: Mini-C source or
    a [.mc]/[.hbc]/[.ir] file in, partitioning result out (the paper's
    "prototype software framework"). *)

type prepared = {
  cdfg : Hypar_ir.Cdfg.t;
  profile : Hypar_profiling.Profile.t;
  interp : Hypar_profiling.Interp.result;
}

val prepare :
  ?backend:Hypar_profiling.Profile.backend ->
  ?name:string ->
  ?simplify:bool ->
  ?verify_ir:bool ->
  ?max_steps:int ->
  ?poll:(unit -> unit) ->
  ?inputs:(string * int array) list ->
  string ->
  prepared
(** Compiles the source (frontend + clean-up passes) and profiles it on
    the given inputs. Raises {!Hypar_minic.Driver.Frontend_error} on
    frontend errors and {!Hypar_profiling.Interp.Runtime_error} on
    execution errors.  [backend] selects the profiling execution backend
    (default: compiled, unless [HYPAR_INTERP=tree], as
    {!Hypar_profiling.Profile.run}).  [max_steps] bounds the profiling interpreter
    (default and cap {!Hypar_profiling.Interp.default_max_steps}), raising
    {!Hypar_profiling.Interp.Fuel_exhausted} when exceeded; [poll] is
    the interpreter's cooperative cancellation hook (see
    {!Hypar_profiling.Interp.run}).
    [verify_ir] (default {!Hypar_ir.Passes.verify_passes}) checks the IR
    at every pass boundary, raising {!Hypar_ir.Verify.Failed}. *)

exception Unsupported_input of string
(** Raised by {!load} for a path whose extension names no frontend. *)

val load : ?raw:bool -> ?verify:bool -> string -> Hypar_ir.Cdfg.t
(** The one input loader, shared by the CLI and [hypar serve]: it picks
    the frontend from the file extension.  [.ir] files (serialised
    CDFGs, see {!Hypar_ir.Serialize}) load directly, must parse (a
    {!Hypar_ir.Serialize.Parse_error} becomes a
    {!Hypar_ir.Frontend.Error} at 1:1 with its message), must keep every
    register id in [0 .. 1048575] (a {!Hypar_ir.Frontend.Error} at 1:1
    otherwise: per-id tables are sized by the largest id) and are
    checked with {!Hypar_ir.Verify.check_exn} (context: the file's
    basename) when [verify] holds; [.hbc] goes through the bytecode frontend, [.mc]
    through the Mini-C compiler.  Any other extension raises
    {!Unsupported_input} before the file is read.  [raw] (default
    [false]) skips the optimisation pipeline (Mini-C [~simplify:false],
    bytecode [~optimize:false]; meaningless for [.ir]).  [verify]
    defaults to {!Hypar_ir.Passes.verify_passes}.  Frontend failures
    raise {!Hypar_ir.Frontend.Error}; I/O failures raise
    [Sys_error]. *)

val prepare_file :
  ?backend:Hypar_profiling.Profile.backend ->
  ?verify_ir:bool ->
  ?max_steps:int ->
  ?poll:(unit -> unit) ->
  string ->
  prepared
(** {!load} (optimised) then profile, with the parameters of
    {!prepare}.  The program runs without inputs. *)

val load_error_message : exn -> string
(** The text of a loader failure: a {!Hypar_ir.Frontend.Error} as
    [file:line:col: message], {!Unsupported_input} as
    [path: unsupported input (...)].  Any other exception renders as
    [Printexc.to_string]. *)

val partition :
  Platform.t ->
  timing_constraint:int ->
  prepared ->
  Engine.t
(** The Figure 2 flow on a prepared application. *)

val partition_source :
  ?name:string ->
  ?inputs:(string * int array) list ->
  Platform.t ->
  timing_constraint:int ->
  string ->
  Engine.t
(** [prepare] + [partition]. *)
