module Sink = Hypar_obs.Sink

type config = {
  jobs : int;
  max_queue : int;
  drain_timeout_ms : int;
  retry_after_ms : int;
  faults : Hypar_resilience.Fault.spec option;
  backend : Hypar_profiling.Profile.backend option;
  default_deadline_ms : int option;
  default_fuel : int option;
  supervisor : Supervisor.options option;
}

(* The overload hint scales with how far behind the pool is: a queue one
   pool-width deep clears in roughly one service interval, so the base
   hint is multiplied by ceil(depth / jobs). *)
let retry_after_hint ~base ~jobs ~depth =
  let jobs = max 1 jobs in
  base * max 1 ((depth + jobs - 1) / jobs)

(* Full, EINTR-safe write of one response line.  EPIPE is swallowed (the
   peer went away; the session winds down at the next read) — it must
   not escape a worker domain and take the server with it.  [first]
   caps how many bytes the first write attempt may transfer (chaos
   [drop]/[truncate] injection); the loop heals the remainder, so the
   client receives the complete line either way. *)
let write_line ?first lock fd s =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      let s = s ^ "\n" in
      let rec go cap off len =
        if len > 0 then
          match
            let n = match cap with Some c -> min c len | None -> len in
            if n = 0 then 0 else Unix.write_substring fd s off n
          with
          | n -> go None (off + n) (len - n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go cap off len
      in
      try go first 0 (String.length s)
      with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ())

let run_session ?(drain_on_eof = true) ?(execute = Worker.execute) ?on_stats
    config drain in_fd out_fd =
  let jobs = max 1 config.jobs in
  let lines = Lines.create in_fd in
  let out_lock = Mutex.create () in
  (* Worker domains capture their trace events per request and park them
     under the request's sequence number; replaying the captures in
     sequence order at session end makes the merged stream independent
     of scheduling (the explore pool's merge discipline). *)
  let captures = ref [] in
  let captures_lock = Mutex.create () in
  let capture seq events =
    if events <> [] then begin
      Mutex.lock captures_lock;
      captures := (seq, events) :: !captures;
      Mutex.unlock captures_lock
    end
  in
  let replay () =
    if Sink.enabled () then
      List.iter
        (fun (_, events) -> Sink.replay events)
        (List.sort (fun (a, _) (b, _) -> compare a b) !captures)
  in
  let chaos =
    match config.supervisor with
    | Some { Supervisor.chaos = Some spec; _ } when Chaos.active spec ->
      Some spec
    | _ -> None
  in
  let write_response line =
    match chaos with
    | Some spec when Chaos.drop_write spec ~key:line ->
      Hypar_obs.Counter.incr "server.chaos.dropped_writes";
      write_line ~first:0 out_lock out_fd line
    | Some spec when Chaos.truncate_write spec ~key:line ->
      Hypar_obs.Counter.incr "server.chaos.truncated_writes";
      write_line ~first:(String.length line / 2) out_lock out_fd line
    | _ -> write_line out_lock out_fd line
  in
  (* Reader-side responses (parse errors, overloaded rejections) record
     under the line's sequence number like worker responses, so the
     replayed counter stream keeps input order regardless of [jobs]. *)
  let respond_reader ~pooled seq resp =
    (if not pooled then Drain.record drain resp
     else begin
       let (), events = Sink.collect (fun () -> Drain.record drain resp) in
       capture seq events
     end);
    write_response (Protocol.render resp)
  in
  let read_loop ~pooled ~admit =
    let seq = ref 0 in
    let rec go () =
      match Lines.next ~stop:(fun () -> Drain.draining drain) lines with
      | Lines.Stopped -> ()
      | Lines.Eof -> if drain_on_eof then Drain.request drain Eof
      | Lines.Line line ->
        if String.trim line <> "" then begin
          Drain.accepted drain;
          incr seq;
          match Protocol.parse_request line with
          | Error msg ->
            respond_reader ~pooled !seq
              (Protocol.Failed { id = None; kind = "parse-error"; message = msg })
          | Ok req -> admit !seq req
        end;
        go ()
    in
    go ()
  in
  let overloaded seq (req : Protocol.request) depth =
    respond_reader ~pooled:true seq
      (Protocol.Overloaded
         {
           id = req.Protocol.id;
           depth;
           retry_after_ms =
             retry_after_hint ~base:config.retry_after_ms ~jobs ~depth;
         })
  in
  let draining_failed seq (req : Protocol.request) =
    respond_reader ~pooled:true seq
      (Protocol.Failed
         {
           id = req.Protocol.id;
           kind = "draining";
           message = "server is draining";
         })
  in
  let base_wconfig queue_depth =
    {
      Worker.faults = config.faults;
      backend = config.backend;
      default_deadline_ms = config.default_deadline_ms;
      default_fuel = config.default_fuel;
      drain;
      queue_depth;
      on_poll = None;
    }
  in
  if jobs = 1 && Option.is_none config.supervisor then
    (* inline: each request runs on the reading domain, so responses
       leave in request order *)
    let wconfig = base_wconfig (fun () -> 0) in
    read_loop ~pooled:false ~admit:(fun _seq req ->
        let resp = execute wconfig req in
        Drain.record drain resp;
        write_response (Protocol.render resp))
  else
    (* self-healing pool: the supervisor owns the queue and the worker
       domains; the session supplies execution, delivery and admission *)
    let opts =
      Option.value config.supervisor ~default:Supervisor.default_options
    in
    let sup_ref = ref None in
    let queue_depth () =
      match !sup_ref with Some s -> Supervisor.depth s | None -> 0
    in
    let base = base_wconfig queue_depth in
    let exec ~heartbeat req =
      let resp, events =
        Sink.collect (fun () ->
            execute { base with Worker.on_poll = Some heartbeat } req)
      in
      { Supervisor.resp; events }
    in
    let deliver ~seq resp events =
      let (), record_events = Sink.collect (fun () -> Drain.record drain resp) in
      capture seq (events @ record_events);
      write_response (Protocol.render resp)
    in
    match
      Supervisor.start ~jobs opts ~queue_capacity:config.max_queue
        ~deadline_ms:(Worker.request_deadline_ms base) ~execute:exec ~deliver
    with
    | Error msg -> failwith (Printf.sprintf "hypar serve: %s" msg)
    | Ok sup -> (
      sup_ref := Some sup;
      let admit seq req =
        match Supervisor.submit sup ~seq req with
        | Supervisor.Admitted -> ()
        | Supervisor.Rejected depth -> overloaded seq req depth
        | Supervisor.Draining -> draining_failed seq req
      in
      read_loop ~pooled:true ~admit;
      let sstats = Supervisor.drain sup in
      replay ();
      match on_stats with Some f -> f sstats | None -> ())

let supervisor_line (s : Supervisor.stats) =
  Printf.sprintf
    "hypar serve: supervisor: respawns=%d retries=%d quarantines=%d wedges=%d \
     crashes=%d workers=%d"
    s.Supervisor.respawns s.Supervisor.retries s.Supervisor.quarantines
    s.Supervisor.wedges s.Supervisor.crashes s.Supervisor.live_workers

let install_signal_handlers drain =
  let request _ = Drain.request drain Signal in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request);
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let run_pipe config =
  let drain = Drain.create ~drain_timeout_ms:config.drain_timeout_ms in
  install_signal_handlers drain;
  let sup_stats = ref None in
  run_session ~on_stats:(fun s -> sup_stats := Some s) config drain Unix.stdin
    Unix.stdout;
  prerr_endline (Drain.stats_line drain);
  (match !sup_stats with
  | Some s -> prerr_endline (supervisor_line s)
  | None -> ());
  0

let rec accept_ready sock =
  match Unix.select [ sock ] [] [] 0.1 with
  | [], _, _ -> None
  | _ -> (
    match Unix.accept sock with
    | fd, _ -> Some fd
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> None)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_ready sock

let run_socket config path =
  if Sys.file_exists path then begin
    Printf.eprintf "hypar: serve: socket path %s already exists\n" path;
    2
  end
  else
    match
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind sock (Unix.ADDR_UNIX path);
         Unix.listen sock 8
       with e ->
         Unix.close sock;
         raise e);
      sock
    with
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "hypar: serve: cannot bind %s: %s\n" path
        (Unix.error_message err);
      2
    | sock ->
      let drain = Drain.create ~drain_timeout_ms:config.drain_timeout_ms in
      install_signal_handlers drain;
      let finish () =
        Unix.close sock;
        (try Sys.remove path with Sys_error _ -> ());
        prerr_endline (Drain.stats_line drain)
      in
      Fun.protect ~finally:finish (fun () ->
          (* Connections are served one at a time, each as its own
             session (workers inside a session still honour [jobs]);
             a client hanging up never drains the server. *)
          while not (Drain.draining drain) do
            match accept_ready sock with
            | None -> ()
            | Some fd ->
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close fd with Unix.Unix_error _ -> ())
                (fun () -> run_session ~drain_on_eof:false config drain fd fd)
          done);
      0
