module Counter = Hypar_obs.Counter
module Journal = Hypar_resilience.Journal
module Retry = Hypar_resilience.Retry

type options = {
  max_retries : int;
  grace_ms : int option;
  chaos : Chaos.spec option;
  quarantine_path : string option;
}

let default_options =
  {
    max_retries = 1;
    grace_ms = None;
    chaos = None;
    quarantine_path = None;
  }

type outcome = { resp : Protocol.response; events : Hypar_obs.Event.t list }

type job = {
  seq : int;
  req : Protocol.request;
  digest : string;
  deadline_ms : int option;
  attempt : int Atomic.t;  (* 1-based; bumped by the monitor on retry *)
  settled : bool Atomic.t;
}

(* Worker lifecycle, advertised through one atomic per slot.  [Crashed]
   is the only state a worker leaves behind on an escaping exception (or
   an injected chaos crash): the domain returns immediately after
   setting it, so the monitor's join is always prompt. *)
type phase =
  | Idle
  | Busy of { job : job; started : float }
  | Crashed of { job : job option; exn_name : string }
  | Exited

type slot = {
  mutable domain : unit Domain.t option;
  phase : phase Atomic.t;
  hb : float Atomic.t;
  abandoned : bool Atomic.t;
}

type stats = {
  respawns : int;
  retries : int;
  quarantines : int;
  wedges : int;
  crashes : int;
  live_workers : int;
  max_heartbeat_age_ms : int;
}

type admission = Admitted | Rejected of int | Draining

type t = {
  jobs : int;
  opts : options;
  queue : job Bqueue.t;
  execute : heartbeat:(unit -> unit) -> Protocol.request -> outcome;
  deliver :
    seq:int -> Protocol.response -> Hypar_obs.Event.t list -> unit;
  deadline_ms : Protocol.request -> int option;
  quarantined : (string, string) Hashtbl.t;
  q_lock : Mutex.t;
  journal : Journal.t option;
  inflight : int Atomic.t;  (* admitted but not yet settled *)
  settled_total : int Atomic.t;
  shutdown : bool Atomic.t;
  slots_lock : Mutex.t;
  mutable slots : slot list;
  mutable orphans : unit Domain.t list;
  mutable monitor : unit Domain.t option;
  (* statistics *)
  respawns : int Atomic.t;
  retries : int Atomic.t;
  quarantines : int Atomic.t;
  wedges : int Atomic.t;
  crashes : int Atomic.t;
  max_hb_age_us : int Atomic.t;
}

let quarantine_header = "hypar-quarantine"

let validate_quarantine path =
  Result.map ignore (Journal.load ~header:quarantine_header path)

(* Quarantine entries are "DIGEST SIGNATURE" lines; the digest is hex
   and the signature a short crash class, so a single space splits
   unambiguously. *)
let load_quarantine opts =
  match opts.quarantine_path with
  | None -> Ok (Hashtbl.create 16, None)
  | Some path ->
    let ( let* ) = Result.bind in
    (* an existing journal is reloaded and appended to, never truncated *)
    let* entries = Journal.load ~header:quarantine_header path in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun entry ->
        match String.index_opt entry ' ' with
        | Some i ->
          Hashtbl.replace tbl
            (String.sub entry 0 i)
            (String.sub entry (i + 1) (String.length entry - i - 1))
        | None -> Hashtbl.replace tbl entry "unknown")
      entries;
    let* journal = Journal.create ~resume:true ~header:quarantine_header path in
    Ok (tbl, Some journal)

let quarantine_signature t digest =
  Mutex.lock t.q_lock;
  let s = Hashtbl.find_opt t.quarantined digest in
  Mutex.unlock t.q_lock;
  s

let poisoned_response job ~signature ~attempts =
  {
    resp = Protocol.Poisoned { id = job.req.Protocol.id; signature; attempts };
    events = [];
  }

(* Exactly-one-response: whoever wins the CAS delivers; every other
   path (an abandoned worker finishing late, a raced retry) loses the
   CAS and stays silent.  [inflight] is decremented only after the
   delivery completes, so drain waits for the write too. *)
let settle t job outcome =
  if Atomic.compare_and_set job.settled false true then begin
    t.deliver ~seq:job.seq outcome.resp outcome.events;
    Atomic.incr t.settled_total;
    Atomic.decr t.inflight
  end

let quarantine t job ~signature =
  Mutex.lock t.q_lock;
  let fresh = not (Hashtbl.mem t.quarantined job.digest) in
  if fresh then Hashtbl.replace t.quarantined job.digest signature;
  Mutex.unlock t.q_lock;
  if fresh then begin
    (match t.journal with
    | Some j -> Journal.append j (job.digest ^ " " ^ signature)
    | None -> ());
    Atomic.incr t.quarantines;
    Counter.incr "server.supervisor.quarantines"
  end;
  settle t job
    (poisoned_response job ~signature ~attempts:(Atomic.get job.attempt))

(* A failed attempt either earns a retry (re-enqueued unconditionally —
   the queue may be closed mid-drain, and an admitted request must
   still be answered) or crosses [max_retries] and is quarantined. *)
let handle_failure t job ~signature =
  if not (Atomic.get job.settled) then begin
    if Atomic.get job.attempt > t.opts.max_retries then
      quarantine t job ~signature
    else begin
      Atomic.incr job.attempt;
      Atomic.incr t.retries;
      Counter.incr "server.supervisor.retries";
      Bqueue.requeue t.queue job
    end
  end

(* --- worker domains ------------------------------------------------------ *)

let beat slot = Atomic.set slot.hb (Unix.gettimeofday ())

(* Sleep [ms] in short chunks, optionally heartbeating each chunk (a
   chaos [delay] heartbeats, a chaos [wedge] does not); returns early
   once the monitor has abandoned the slot. *)
let stall slot ~heartbeating ms =
  let rec go ms =
    if Atomic.get slot.abandoned then true
    else if ms <= 0 then Atomic.get slot.abandoned
    else begin
      let chunk = min ms 5 in
      Unix.sleepf (float_of_int chunk /. 1000.);
      if heartbeating then beat slot;
      go (ms - chunk)
    end
  in
  go ms

let worker_loop t slot =
  let chaos_for job =
    match t.opts.chaos with
    | None -> (false, None, None)
    | Some spec ->
      let attempt = Atomic.get job.attempt in
      ( Chaos.crashes spec ~seq:job.seq ~key:job.digest ~attempt,
        Chaos.wedge_ms spec ~seq:job.seq ~key:job.digest ~attempt,
        Chaos.delay_ms spec ~key:job.digest ~attempt )
  in
  let rec loop () =
    if Atomic.get slot.abandoned then Atomic.set slot.phase Exited
    else begin
      Atomic.set slot.phase Idle;
      beat slot;
      match Bqueue.pop t.queue with
      | None -> Atomic.set slot.phase Exited
      | Some job -> run job
    end
  and run job =
    if Atomic.get job.settled then loop ()
    else
      match quarantine_signature t job.digest with
      | Some signature ->
        (* a sibling request with the same digest was quarantined while
           this one sat in the queue *)
        settle t job (poisoned_response job ~signature ~attempts:0);
        loop ()
      | None -> (
        beat slot;
        Atomic.set slot.phase (Busy { job; started = Unix.gettimeofday () });
        let crash, wedge, delay = chaos_for job in
        if crash then
          (* die exactly as an escaping exception would: advertise the
             crash, return from the domain, let the monitor heal *)
          Atomic.set slot.phase (Crashed { job = Some job; exn_name = "injected" })
        else begin
          (match delay with
          | Some ms -> ignore (stall slot ~heartbeating:true ms)
          | None -> ());
          let abandoned_mid_wedge =
            match wedge with
            | Some ms -> stall slot ~heartbeating:false ms
            | None -> false
          in
          if abandoned_mid_wedge || Atomic.get slot.abandoned then
            (* the monitor gave up on us and reassigned the job; exit
               without executing so no duplicate response can race *)
            Atomic.set slot.phase Exited
          else
            match t.execute ~heartbeat:(fun () -> beat slot) job.req with
            | outcome ->
              settle t job outcome;
              loop ()
            | exception e ->
              Atomic.set slot.phase
                (Crashed { job = Some job; exn_name = Printexc.exn_slot_name e })
        end)
  in
  try loop ()
  with e ->
    Atomic.set slot.phase
      (Crashed { job = None; exn_name = Printexc.exn_slot_name e })

let spawn_slot t =
  let slot =
    {
      domain = None;
      phase = Atomic.make Idle;
      hb = Atomic.make (Unix.gettimeofday ());
      abandoned = Atomic.make false;
    }
  in
  slot.domain <- Some (Domain.spawn (fun () -> worker_loop t slot));
  slot

(* --- the monitor domain -------------------------------------------------- *)

let note_hb_age t age_s =
  let us = int_of_float (age_s *. 1e6) in
  let rec bump () =
    let cur = Atomic.get t.max_hb_age_us in
    if us > cur && not (Atomic.compare_and_set t.max_hb_age_us cur us) then
      bump ()
  in
  bump ()

let monitor_loop t =
  (* consecutive respawns without an intervening settled request drive
     the bounded exponential backoff (20 ms base, 200 ms cap); any
     progress resets it *)
  let consecutive = ref 0 in
  let last_settled = ref (Atomic.get t.settled_total) in
  let respawn_backoff () =
    let settled_now = Atomic.get t.settled_total in
    if settled_now <> !last_settled then consecutive := 0;
    last_settled := settled_now;
    incr consecutive;
    let wait_us =
      min 200_000 (Retry.delay_us ~backoff_us:20_000 ~attempt:!consecutive)
    in
    if wait_us > 0 then Unix.sleepf (float_of_int wait_us /. 1e6)
  in
  let count_respawn () =
    Atomic.incr t.respawns;
    Counter.incr "server.supervisor.respawns"
  in
  while not (Atomic.get t.shutdown) do
    let now = Unix.gettimeofday () in
    Mutex.lock t.slots_lock;
    let slots = t.slots in
    Mutex.unlock t.slots_lock;
    let slots' =
      List.map
        (fun slot ->
          match Atomic.get slot.phase with
          | Crashed { job; exn_name } ->
            (match slot.domain with
            | Some d -> Domain.join d
            | None -> ());
            Atomic.incr t.crashes;
            Counter.incr "server.supervisor.crashes";
            (match job with
            | Some job ->
              handle_failure t job ~signature:("crash:" ^ exn_name)
            | None -> ());
            count_respawn ();
            respawn_backoff ();
            spawn_slot t
          | Busy { job; started } -> (
            let hb_age = now -. Atomic.get slot.hb in
            note_hb_age t hb_age;
            match t.opts.grace_ms with
            | Some grace_ms when not (Atomic.get job.settled) ->
              let grace = float_of_int grace_ms /. 1000. in
              let budget =
                match job.deadline_ms with
                | Some ms -> float_of_int ms /. 1000.
                | None -> 0.
              in
              if hb_age > grace && now -. started > budget +. grace then begin
                (* wedged: no poll progress past deadline + grace.  A
                   domain cannot be killed, so the worker is abandoned —
                   it will exit on its own without delivering — and a
                   fresh one takes its slot *)
                Atomic.set slot.abandoned true;
                Atomic.incr t.wedges;
                Counter.incr "server.supervisor.wedges";
                handle_failure t job ~signature:"wedge";
                Mutex.lock t.slots_lock;
                (match slot.domain with
                | Some d -> t.orphans <- d :: t.orphans
                | None -> ());
                Mutex.unlock t.slots_lock;
                count_respawn ();
                respawn_backoff ();
                spawn_slot t
              end
              else slot
            | _ -> slot)
          | Idle | Exited -> slot)
        slots
    in
    (* a retry re-enqueued after every worker already exited (the queue
       was momentarily closed and empty) still needs a live worker *)
    let slots' =
      if
        Bqueue.depth t.queue > 0
        && not
             (List.exists
                (fun s -> Atomic.get s.phase <> Exited)
                slots')
      then spawn_slot t :: slots'
      else slots'
    in
    Mutex.lock t.slots_lock;
    t.slots <- slots';
    Mutex.unlock t.slots_lock;
    Unix.sleepf 0.002
  done

(* --- lifecycle ----------------------------------------------------------- *)

let start ~jobs opts ~queue_capacity ~deadline_ms ~execute ~deliver =
  match load_quarantine opts with
  | Error msg -> Error (Printf.sprintf "quarantine journal: %s" msg)
  | Ok (quarantined, journal) ->
    let t =
      {
        jobs = max 1 jobs;
        opts;
        queue = Bqueue.create ~capacity:queue_capacity;
        execute;
        deliver;
        deadline_ms;
        quarantined;
        q_lock = Mutex.create ();
        journal;
        inflight = Atomic.make 0;
        settled_total = Atomic.make 0;
        shutdown = Atomic.make false;
        slots_lock = Mutex.create ();
        slots = [];
        orphans = [];
        monitor = None;
        respawns = Atomic.make 0;
        retries = Atomic.make 0;
        quarantines = Atomic.make 0;
        wedges = Atomic.make 0;
        crashes = Atomic.make 0;
        max_hb_age_us = Atomic.make 0;
      }
    in
    t.slots <- List.init t.jobs (fun _ -> spawn_slot t);
    t.monitor <- Some (Domain.spawn (fun () -> monitor_loop t));
    Ok t

let submit t ~seq req =
  let digest = Protocol.digest req in
  let job =
    {
      seq;
      req;
      digest;
      deadline_ms = t.deadline_ms req;
      attempt = Atomic.make 1;
      settled = Atomic.make false;
    }
  in
  match quarantine_signature t digest with
  | Some signature ->
    (* known-poisonous: answer immediately, never risk a worker *)
    Atomic.incr t.inflight;
    settle t job (poisoned_response job ~signature ~attempts:0);
    Admitted
  | None -> (
    Atomic.incr t.inflight;
    match Bqueue.push t.queue job with
    | Bqueue.Pushed depth ->
      Counter.set "server.queue.depth" depth;
      Admitted
    | Bqueue.Full depth ->
      Atomic.decr t.inflight;
      Rejected depth
    | Bqueue.Closed ->
      Atomic.decr t.inflight;
      Draining)

let depth t = Bqueue.depth t.queue

let live_workers t =
  Mutex.lock t.slots_lock;
  let n = List.length t.slots in
  Mutex.unlock t.slots_lock;
  n

let stats t =
  {
    respawns = Atomic.get t.respawns;
    retries = Atomic.get t.retries;
    quarantines = Atomic.get t.quarantines;
    wedges = Atomic.get t.wedges;
    crashes = Atomic.get t.crashes;
    live_workers = live_workers t;
    max_heartbeat_age_ms = Atomic.get t.max_hb_age_us / 1000;
  }

let drain t =
  Bqueue.close t.queue;
  (* every admitted job settles eventually: a queued job is popped by a
     live worker (the monitor keeps at least one alive while work
     remains), a running job settles or crashes, a crashed/wedged job is
     retried or quarantined — all of which end in exactly one settle *)
  while Atomic.get t.inflight > 0 do
    Unix.sleepf 0.002
  done;
  Atomic.set t.shutdown true;
  (match t.monitor with Some d -> Domain.join d | None -> ());
  t.monitor <- None;
  List.iter
    (fun slot -> match slot.domain with Some d -> Domain.join d | None -> ())
    t.slots;
  List.iter Domain.join t.orphans;
  t.orphans <- [];
  (match t.journal with Some j -> Journal.close j | None -> ());
  Counter.set "server.supervisor.max_heartbeat_age_ms"
    (Atomic.get t.max_hb_age_us / 1000);
  stats t
