(** Request execution: one verb in, one response envelope out, never an
    escaping exception.

    {!execute} is the isolation boundary: whatever a verb raises —
    frontend diagnostics, IR verification failures, interpreter runtime
    errors, [Sys_error] on a missing file, or anything else — is caught
    here and reported as a typed [error] envelope carrying the exception
    constructor, so one poisonous request can never take a worker (or
    the server) down.

    Deadlines are enforced two ways, matching the CLI's budget model:
    the wall-clock budget ([deadline_ms], default from the config) via a
    cooperative poll hook threaded into the profiling interpreter
    ({!Hypar_profiling.Interp.run}'s [?poll]), and the typed fuel cap
    ([fuel]) via {!Hypar_profiling.Interp.Fuel_exhausted}.  A
    signal-initiated drain folds its cancellation deadline into every
    in-flight request's budget ({!Drain.cancel_deadline}).

    Files load through {!Hypar_core.Flow.prepare_file}, the CLI's
    loader; an unsupported extension is a [bad-request] failure.

    Verbs: [partition], [analyze], [explore], [faults], [health] — see
    [docs/server.md] for their request fields and payloads. *)

type config = {
  faults : Hypar_resilience.Fault.spec option;
      (** degrade the platform for [partition]/[explore], as [--faults] *)
  backend : Hypar_profiling.Profile.backend option;
      (** profiling interpreter backend; [None] defers to
          {!Hypar_profiling.Profile.run}'s default ([HYPAR_INTERP]) *)
  default_deadline_ms : int option;
  default_fuel : int option;
  drain : Drain.t;
  queue_depth : unit -> int;  (** sampled by the [health] verb *)
  on_poll : (unit -> unit) option;
      (** supervision heartbeat, invoked on every cooperative poll;
          [None] outside a supervised pool *)
}

val execute : config -> Protocol.request -> Protocol.response
(** Total: never raises. *)

val request_deadline_ms : config -> Protocol.request -> int option
(** The wall-clock budget the request asked for ([deadline_ms], falling
    back to the config default), without starting it: the supervisor
    folds it into its wedge-detection threshold. *)

val envelope_of_exn : int option -> exn -> Protocol.response
(** The envelope {!execute} produces when a verb raises, keyed by the
    request id: deadline and fuel exceptions become typed
    [deadline_exceeded] envelopes, [Bad_request] becomes a
    [bad-request] failure, resource exhaustion ([Stack_overflow],
    [Out_of_memory]) is ranked as a [crash:*] failure naming the
    request, and I/O failures ([Sys_error], [Unix.Unix_error]) as
    [io:*] failures naming the request — not swallowed into the
    generic error shape.  Exposed so the rankings are testable without
    actually exhausting the stack inside the test runner. *)
