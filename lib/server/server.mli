(** The serving loop: JSON-lines requests in, envelopes out, with
    admission control, a worker-domain pool and graceful drain.

    Pipe mode ({!run_pipe}) reads stdin and writes stdout; socket mode
    ({!run_socket}) binds a Unix-domain socket and serves connections
    one at a time, each as its own session.  Both install SIGINT/SIGTERM
    handlers that request a signal drain: the reader stops accepting,
    queued work finishes or is cancelled against the drain timeout
    (cooperatively, through every request's deadline), a final stats
    line goes to stderr and the process exits 0.

    With [jobs = 1] and no [supervisor] requests execute inline in the
    read loop, so response order equals request order — the mode cram
    tests rely on.  Every other session runs a {!Supervisor} pool
    ([supervisor], or {!Supervisor.default_options} when [None]):
    well-formed requests go through its bounded queue, and when the
    queue is full the request is refused with a typed [overloaded]
    envelope instead of queueing without bound.  Worker crashes and
    wedges are healed, failing requests are retried and ultimately
    quarantined, and chaos faults from the options' [chaos] are
    injected — see {!Supervisor} and {!Chaos}.  Worker trace events are
    captured per request ({!Hypar_obs.Sink.collect}) and replayed in
    request order at session end, so merged traces and counter totals
    are independent of [jobs]. *)

type config = {
  jobs : int;
  max_queue : int;
  drain_timeout_ms : int;
  retry_after_ms : int;
      (** base of the [overloaded] envelope's retry hint (the CLI
          default is 100); scaled by queue depth via
          {!retry_after_hint} *)
  faults : Hypar_resilience.Fault.spec option;
  backend : Hypar_profiling.Profile.backend option;
      (** profiling backend override; [None] honours [HYPAR_INTERP] *)
  default_deadline_ms : int option;
  default_fuel : int option;
  supervisor : Supervisor.options option;
      (** the pool's supervision options; [None] means
          {!Supervisor.default_options}, or the inline path when
          [jobs = 1] *)
}

val retry_after_hint : base:int -> jobs:int -> depth:int -> int
(** Load-aware backoff hint: [base * ceil(depth / jobs)].  A queue one
    pool-width deep clears in about one service interval, so the hint
    grows linearly with how many such intervals are already queued. *)

val run_session :
  ?drain_on_eof:bool ->
  ?execute:(Worker.config -> Protocol.request -> Protocol.response) ->
  ?on_stats:(Supervisor.stats -> unit) ->
  config ->
  Drain.t ->
  Unix.file_descr ->
  Unix.file_descr ->
  unit
(** One session over a descriptor pair.  [drain_on_eof] (default [true])
    requests an [Eof] drain when input ends — socket connections pass
    [false] so a disconnecting client does not stop the server.
    [execute] (default {!Worker.execute}) is a test seam for injecting
    deterministic or blocking workloads.  [on_stats] observes the
    supervisor's final statistics (every session but the inline one). *)

val run_pipe : config -> int
(** Serve stdin/stdout until EOF or a signal; returns the exit code
    (always 0 — per-request failures are envelopes, not exits). *)

val run_socket : config -> string -> int
(** Serve a Unix-domain socket at the given path until a signal.
    Returns 2 when the path already exists or cannot be bound, else 0;
    the socket file is removed on the way out. *)
