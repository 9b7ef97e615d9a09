(* An in-process supervised serve session over a pipe pair, and the
   closed-loop client that drives it.  The session runs in its own
   domain exactly as [hypar serve --jobs 1] would; the client writes
   JSON-lines requests and reads envelopes back, timing each request
   from write to read. *)

module Server = Hypar_server.Server
module Supervisor = Hypar_server.Supervisor
module Worker = Hypar_server.Worker
module Protocol = Hypar_server.Protocol
module Drain = Hypar_server.Drain
module Jsonv = Hypar_obs.Jsonv

(* One worker: on two cores, a second worker plus the client and the
   session's reader outnumber the cores.  With another process keeping
   one core busy, two workers served half as many requests as without
   it, and one worker as many. *)
let config =
  {
    Server.jobs = 1;
    max_queue = 64;
    drain_timeout_ms = 1000;
    retry_after_ms = 100;
    faults = None;
    backend = None;
    default_deadline_ms = None;
    default_fuel = None;
    supervisor = Some Supervisor.default_options;
  }

type t = {
  requests : out_channel;
  responses : in_channel;
  session : unit Domain.t;
  stats : Supervisor.stats option Atomic.t;
  exec_lock : Mutex.t;
  exec : (int, float * float) Hashtbl.t;  (* id -> execute start, end (ms) *)
  sent : (int, float) Hashtbl.t;  (* in flight: id -> write time (ms) *)
  mutable next_id : int;
}

type reply = {
  id : int;
  status : string;
  payload : string;  (* compact JSON, "" unless ok *)
  latency_ms : float;
  exec : (float * float) option;  (* when the session times execution *)
  sent_ms : float;
}

let now_ms = Tally.now_ms

let send t body =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.sent id (now_ms ());
  Printf.fprintf t.requests "{\"id\":%d,%s}\n%!" id body

(* Reads one envelope.  An id that is not in flight — unknown, or
   answered before — is an [Error]: every request must be answered
   exactly once. *)
let receive t =
  let line = input_line t.responses in
  let received = now_ms () in
  let str v name = Option.bind (Jsonv.member name v) Jsonv.to_str in
  match Jsonv.parse line with
  | Error e -> Error (Printf.sprintf "unparsable envelope %S: %s" line e)
  | Ok v -> (
    match Option.bind (Jsonv.member "id" v) Jsonv.to_int with
    | None -> Error ("envelope without an id: " ^ line)
    | Some id -> (
      match Hashtbl.find_opt t.sent id with
      | None -> Error (Printf.sprintf "request %d answered twice or never sent" id)
      | Some sent_ms ->
        Hashtbl.remove t.sent id;
        let exec = Mutex.protect t.exec_lock (fun () -> Hashtbl.find_opt t.exec id) in
        Ok
          {
            id;
            status = Option.value (str v "status") ~default:"";
            payload =
              Option.fold ~none:"" ~some:Jsonv.to_string (Jsonv.member "payload" v);
            latency_ms = received -. sent_ms;
            exec;
            sent_ms;
          }))

(* Closed loop with [concurrency] requests in flight: [next ()] gives
   the body of the next request, [None] once the client should stop
   sending; every envelope read goes to [on_reply]. *)
let closed_loop t ~concurrency ~next ~on_reply =
  let in_flight = ref 0 in
  let rec fill () =
    if !in_flight < concurrency then
      match next () with
      | Some body ->
        send t body;
        incr in_flight;
        fill ()
      | None -> ()
  in
  fill ();
  while !in_flight > 0 do
    let r = receive t in
    decr in_flight;
    on_reply r;
    fill ()
  done

(* Starts a session and returns once it has answered a [health]
   request.  [timed_exec] records when each request's execution starts
   and ends, through the session's [execute] seam. *)
let start ?(timed_exec = false) () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let exec_lock = Mutex.create () and exec = Hashtbl.create 256 in
  let execute =
    if not timed_exec then None
    else
      Some
        (fun wconfig (req : Protocol.request) ->
          let t0 = now_ms () in
          let resp = Worker.execute wconfig req in
          let t1 = now_ms () in
          Option.iter
            (fun id -> Mutex.protect exec_lock (fun () -> Hashtbl.replace exec id (t0, t1)))
            req.id;
          resp)
  in
  let stats = Atomic.make None in
  let session =
    Domain.spawn (fun () ->
        let drain = Drain.create ~drain_timeout_ms:config.drain_timeout_ms in
        Fun.protect
          ~finally:(fun () -> Unix.close req_r; Unix.close resp_w)
          (fun () ->
            Server.run_session ?execute
              ~on_stats:(fun s -> Atomic.set stats (Some s))
              config drain req_r resp_w))
  in
  let t =
    {
      requests = Unix.out_channel_of_descr req_w;
      responses = Unix.in_channel_of_descr resp_r;
      session;
      stats;
      exec_lock;
      exec;
      sent = Hashtbl.create 64;
      next_id = 0;
    }
  in
  send t {|"verb":"health"|};
  (match receive t with
  | Ok { status = "ok"; _ } -> ()
  | Ok r -> failwith ("serve session did not start: health answered " ^ r.status)
  | Error e -> failwith e);
  t

(* Ends input, waits for the drained session to return, and gives the
   supervisor's final statistics plus the ids still unanswered. *)
let stop t =
  close_out t.requests;
  Domain.join t.session;
  close_in t.responses;
  (Atomic.get t.stats, Hashtbl.length t.sent)

(* The server-side split of each reply: time executing, time waiting
   between write and execution, and the rest of the latency. *)
let record_server layers replies (stats : Supervisor.stats option) =
  List.iter
    (fun r ->
      match r.exec with
      | Some (t0, t1) ->
        Layers.sample layers "server.exec_ms" (t1 -. t0);
        Layers.sample layers "server.wait_ms" (t0 -. r.sent_ms);
        Layers.sample layers "server.overhead_ms" (r.latency_ms -. (t1 -. t0))
      | None -> ())
    replies;
  let overloaded = List.filter (fun r -> r.status = "overloaded") replies in
  Layers.add layers "server.rejected" (float_of_int (List.length overloaded));
  Option.iter
    (fun (s : Supervisor.stats) ->
      Layers.add layers "server.respawns" (float_of_int s.respawns);
      Layers.add layers "server.retries" (float_of_int s.retries))
    stats

(* One session serving [bodies] at concurrency 2; with [layers], the
   server-side split of each request goes there as samples.  Returns the
   replies in request order plus the problems seen. *)
let batch ?layers bodies =
  let t = start ~timed_exec:(layers <> None) () in
  let pending = ref bodies and replies = ref [] and problems = ref [] in
  let next () =
    match !pending with
    | [] -> None
    | b :: rest ->
      pending := rest;
      Some b
  in
  let on_reply = function
    | Ok r -> replies := r :: !replies
    | Error e -> problems := e :: !problems
  in
  closed_loop t ~concurrency:2 ~next ~on_reply;
  let stats, unanswered = stop t in
  let replies = List.sort (fun a b -> compare a.id b.id) !replies in
  Option.iter (fun l -> record_server l replies stats) layers;
  if unanswered > 0 then
    problems := Printf.sprintf "%d requests never answered" unanswered :: !problems;
  (replies, !problems)

(* Every reply of a batch must be [ok]; anything else fails the op it
   belongs to. *)
let check_batch tally (replies, problems) =
  List.iter (fun p -> Tally.record tally (Some p)) problems;
  List.iter
    (fun r ->
      Tally.record tally
        (if r.status = "ok" then None
         else Some (Printf.sprintf "request %d answered %s" r.id r.status)))
    replies
