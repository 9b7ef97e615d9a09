(** Self-healing worker pool: supervision, retry, and quarantine.

    The supervisor owns the worker domains of a pooled serve session.  A
    dedicated monitor domain watches per-worker phase/heartbeat atomics
    and heals two failure classes:

    - {b crashed} workers — an exception escaped the execute callback
      (or a chaos [crash] fired).  The dead domain is joined and a fresh
      one spawned with bounded exponential backoff (the
      {!Hypar_resilience.Retry.delay_us} schedule from a 20 ms base,
      reset whenever any request settles, capped at 200 ms per wait);
    - {b wedged} workers — still running but past the request's deadline
      budget plus [grace_ms] with no poll progress (no heartbeat).
      Domains cannot be killed, so the worker is {e abandoned}: a flag
      tells it to exit without delivering, its domain moves to an orphan
      list joined at drain, and a replacement takes the slot.

    The in-flight request of a crashed or wedged worker is re-enqueued —
    at most [max_retries] times.  A request that keeps killing workers
    is {e quarantined}: it settles with a typed [poisoned] envelope
    carrying the crash signature, its id-independent digest
    ({!Protocol.digest}) goes into an in-memory table consulted on every
    admission, and — when [quarantine_path] is set — into a crash-safe
    {!Hypar_resilience.Journal}, so a restarted server refuses the
    poison without sacrificing another worker.

    Every admitted request settles exactly once (a CAS guards delivery),
    even when an abandoned worker finishes late and races its own retry.

    Supervision events increment [server.supervisor.*] counters when the
    observability sink is enabled. *)

type options = {
  max_retries : int;
      (** failed executions re-enqueued per request before quarantine *)
  grace_ms : int option;
      (** wedge detection threshold; [None] disables detection *)
  chaos : Chaos.spec option;  (** injected faults, [None] in production *)
  quarantine_path : string option;
      (** journal for quarantined digests, reloaded if it exists *)
}

val default_options : options
(** [max_retries = 1], no grace (wedge detection off), no chaos, no
    journal. *)

type outcome = { resp : Protocol.response; events : Hypar_obs.Event.t list }
(** What one execution produced: the response envelope plus the
    observability events captured while computing it (replayed in
    sequence order by the session so traces stay jobs-independent). *)

type stats = {
  respawns : int;  (** worker domains spawned beyond the initial pool *)
  retries : int;  (** requests re-enqueued after a crash or wedge *)
  quarantines : int;  (** requests settled as [poisoned] *)
  wedges : int;  (** workers abandoned by wedge detection *)
  crashes : int;  (** worker domains that died with an exception *)
  live_workers : int;  (** pool size at observation time *)
  max_heartbeat_age_ms : int;
      (** worst observed poll gap — how close the pool came to the
          wedge threshold *)
}

type admission =
  | Admitted  (** queued, quarantine-answered, or already settled *)
  | Rejected of int  (** queue full; payload is the depth *)
  | Draining  (** the queue is closed *)

type t

val validate_quarantine : string -> (unit, string) result
(** Check that [path] is absent or a loadable quarantine journal —
    the CLI validates before starting the server for a clean exit. *)

val start :
  jobs:int ->
  options ->
  queue_capacity:int ->
  deadline_ms:(Protocol.request -> int option) ->
  execute:(heartbeat:(unit -> unit) -> Protocol.request -> outcome) ->
  deliver:(seq:int -> Protocol.response -> Hypar_obs.Event.t list -> unit) ->
  (t, string) result
(** Spawn [jobs] workers plus the monitor.  [execute] runs a request on
    a worker domain and must call [heartbeat] from its poll hook;
    exceptions escaping it are treated as worker crashes.  [deliver] is
    called exactly once per admitted request, from whichever domain
    settles it — it must be thread-safe.  [deadline_ms] reports a
    request's wall budget for the wedge threshold ([None] = no
    deadline).  [Error] means the quarantine journal could not be
    opened. *)

val submit : t -> seq:int -> Protocol.request -> admission
(** Admit a request.  A digest already quarantined settles immediately
    as [poisoned] (attempts 0) without touching a worker — that still
    counts as [Admitted]. *)

val depth : t -> int
(** Current queue depth, for overload envelopes and health. *)

val drain : t -> stats
(** Close the queue, wait until every admitted request has settled,
    stop the monitor, join every worker — including abandoned orphans,
    which by then have noticed the abandon flag and exited — and close
    the journal.  Returns the final statistics; [live_workers] is the
    healed pool size. *)
