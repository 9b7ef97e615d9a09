type reason = Eof | Signal

type t = {
  drain_timeout_ms : int;
  started_at : float;
  state : reason option Atomic.t;
  cancel_at : Deadline.t Atomic.t;
  accepted : int Atomic.t;
  completed : int Atomic.t;
  errors : int Atomic.t;
  deadline_exceeded : int Atomic.t;
  rejected : int Atomic.t;
  poisoned : int Atomic.t;
}

let create ~drain_timeout_ms =
  {
    drain_timeout_ms;
    started_at = Unix.gettimeofday ();
    state = Atomic.make None;
    cancel_at = Atomic.make Deadline.never;
    accepted = Atomic.make 0;
    completed = Atomic.make 0;
    errors = Atomic.make 0;
    deadline_exceeded = Atomic.make 0;
    rejected = Atomic.make 0;
    poisoned = Atomic.make 0;
  }

let request t why =
  if Atomic.compare_and_set t.state None (Some why) && why = Signal then
    Atomic.set t.cancel_at (Deadline.after_ms t.drain_timeout_ms)

let draining t = Atomic.get t.state <> None
let reason t = Atomic.get t.state
let cancel_deadline t = Atomic.get t.cancel_at

let accepted t =
  Atomic.incr t.accepted;
  Hypar_obs.Counter.incr "server.requests.accepted"

let record t (resp : Protocol.response) =
  let cell, counter =
    match resp with
    | Protocol.Done _ -> (t.completed, "server.requests.completed")
    | Protocol.Failed _ -> (t.errors, "server.requests.errors")
    | Protocol.Deadline_exceeded _ ->
      (t.deadline_exceeded, "server.requests.deadline_exceeded")
    | Protocol.Overloaded _ -> (t.rejected, "server.requests.rejected")
    | Protocol.Poisoned _ -> (t.poisoned, "server.requests.poisoned")
  in
  Atomic.incr cell;
  Hypar_obs.Counter.incr counter

let uptime_ms t =
  int_of_float (Float.round ((Unix.gettimeofday () -. t.started_at) *. 1000.))

let health_payload t ~queue_depth =
  Printf.sprintf
    {|{"uptime_ms":%d,"queue_depth":%d,"draining":%b,"accepted":%d,"completed":%d,"errors":%d,"deadline_exceeded":%d,"rejected":%d,"poisoned":%d}|}
    (uptime_ms t) queue_depth (draining t)
    (Atomic.get t.accepted)
    (Atomic.get t.completed)
    (Atomic.get t.errors)
    (Atomic.get t.deadline_exceeded)
    (Atomic.get t.rejected)
    (Atomic.get t.poisoned)

let stats_line t =
  let why =
    match Atomic.get t.state with
    | Some Eof -> "eof"
    | Some Signal -> "signal"
    | None -> "exit"
  in
  Printf.sprintf
    "hypar serve: drained (%s): accepted=%d completed=%d errors=%d \
     deadline-exceeded=%d rejected=%d poisoned=%d"
    why
    (Atomic.get t.accepted)
    (Atomic.get t.completed)
    (Atomic.get t.errors)
    (Atomic.get t.deadline_exceeded)
    (Atomic.get t.rejected)
    (Atomic.get t.poisoned)
