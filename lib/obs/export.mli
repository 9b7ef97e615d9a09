(** Chrome trace export of an event stream, a parser that validates
    such an export, and the atomic file writer for rendered artefacts. *)

val chrome : Event.t list -> string
(** Chrome [trace_event] JSON (loadable in chrome://tracing and
    Perfetto): spans as "B"/"E" phase pairs, counters and gauges as "C"
    phase with [args.value] (counters as running totals), instants as
    "i".  [pid] is always 0 and timestamps are microseconds, so two
    runs differ only in [ts] values. *)

val parse_chrome : string -> (Event.t list, string) result
(** Parse a {!chrome} export back into events ("C" phases come back as
    gauges carrying the running total).  Used by [hypar trace] to
    validate a written file. *)

val write_file : string -> string -> unit
(** [write_file path data] writes atomically: the bytes go to a
    temporary sibling first and land at [path] via [Sys.rename], so a
    crash mid-export never leaves a torn file.  Used for every rendered
    artefact the CLI writes to disk ([--trace], [explore --out]).
    Raises [Sys_error] on I/O failure (the temp file is removed). *)
