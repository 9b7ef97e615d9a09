(** Shutdown coordination and session statistics.

    A drain is requested exactly once — by end-of-input ([Eof]) or by
    SIGINT/SIGTERM ([Signal]); later requests keep the first reason.  A
    signal-initiated drain also stamps a cancellation deadline
    [now + drain_timeout_ms]: workers fold it into their per-request
    deadline so in-flight work that outlives the grace period is
    cancelled cooperatively instead of being killed.

    The counters are atomics shared across worker domains; [record]
    classifies each response and mirrors it into [Hypar_obs] counters so
    [health] and the final stats line agree. *)

type t

type reason = Eof | Signal

val create : drain_timeout_ms:int -> t
val request : t -> reason -> unit
val draining : t -> bool
val reason : t -> reason option

val cancel_deadline : t -> Deadline.t
(** [Never] until a [Signal] drain is requested. *)

val accepted : t -> unit
(** Count a request admitted for execution. *)

val record : t -> Protocol.response -> unit
(** Classify a response into completed / errors / deadline-exceeded /
    rejected / poisoned. *)

val health_payload : t -> queue_depth:int -> string
(** The [health] verb's payload: uptime, queue depth and the counters,
    as one-line JSON. *)

val stats_line : t -> string
(** The final line printed to stderr on exit, e.g.
    ["hypar serve: drained (eof): accepted=4 completed=3 errors=1 deadline-exceeded=0 rejected=0 poisoned=0"]. *)
