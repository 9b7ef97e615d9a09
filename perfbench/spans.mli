(** Per-name span aggregates over a recorded event stream, with self
    time taken as a span's duration minus the part of it that its child
    spans cover.

    Covered time is the union of the children's intervals clipped to the
    parent, so children that overlap — as the serve session's replayed
    worker captures do — are not counted twice, and self time never goes
    negative. *)

type stat = {
  count : int;  (** completed spans with this name *)
  total_us : float;  (** summed durations *)
  self_us : float;  (** summed durations minus child coverage *)
}

val aggregate : Hypar_obs.Event.t list -> (string * stat) list
(** One entry per span name, in first-completion order.  Unbalanced
    ends are ignored ({!Hypar_obs.Span.validate} reports them). *)

val find : (string * stat) list -> string -> stat
(** The named aggregate, all zero when the name never completed. *)
