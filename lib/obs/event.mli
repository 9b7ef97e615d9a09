(** Trace events: the single record type flowing through the sink.

    Spans are recorded as paired [Begin]/[End] events (Chrome
    trace_event "B"/"E" phases); counters as deltas, gauges as absolute
    values.  [ts] is in microseconds as produced by the sink's clock and
    [tid] is the emitting domain's id (rewritten by {!Sink.replay} when
    captured worker events are merged back deterministically). *)

type arg = Int of int | Str of string

type kind =
  | Begin of { cat : string; args : (string * arg) list }
  | End
  | Counter of { delta : int }
  | Gauge of { value : int }
  | Instant of { cat : string }

type t = { name : string; ts : float; tid : int; kind : kind }

