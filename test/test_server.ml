(* hypar serve internals: wire protocol, admission queue, deadlines,
   request isolation and session behaviour (drain, jobs-independence,
   backpressure). *)

module Protocol = Hypar_server.Protocol
module Bqueue = Hypar_server.Bqueue
module Deadline = Hypar_server.Deadline
module Drain = Hypar_server.Drain
module Worker = Hypar_server.Worker
module Server = Hypar_server.Server
module Jsonv = Hypar_obs.Jsonv

let fir_source =
  {|
int x[64];
int h[8];
int y[64];
void main() {
  int i;
  for (i = 0; i < 56; i = i + 1) {
    int s = 0;
    int t;
    for (t = 0; t < 8; t = t + 1) {
      s = s + x[i + t] * h[t];
    }
    y[i] = s >> 6;
  }
}
|}

let write_temp ~suffix contents =
  let path = Filename.temp_file "hypar_serve_test" suffix in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let fir_file = lazy (write_temp ~suffix:".mc" fir_source)

let fresh_config ?faults ?default_deadline_ms ?default_fuel () =
  {
    Worker.faults;
    backend = None;
    default_deadline_ms;
    default_fuel;
    drain = Drain.create ~drain_timeout_ms:1000;
    queue_depth = (fun () -> 0);
    on_poll = None;
  }

let request_exn line =
  match Protocol.parse_request line with
  | Ok req -> req
  | Error msg -> Alcotest.failf "parse_request %S: %s" line msg

(* ---- protocol ---------------------------------------------------------- *)

let test_parse_request () =
  let req = request_exn {|{"id":7,"verb":"health","top":3}|} in
  Alcotest.(check (option int)) "id" (Some 7) req.Protocol.id;
  Alcotest.(check string) "verb" "health" req.Protocol.verb;
  Alcotest.(check int) "field" 3 (Protocol.int_field req.Protocol.body "top");
  let anon = request_exn {|{"verb":"health"}|} in
  Alcotest.(check (option int)) "no id" None anon.Protocol.id;
  let null_id = request_exn {|{"id":null,"verb":"health"}|} in
  Alcotest.(check (option int)) "null id" None null_id.Protocol.id

let test_parse_request_errors () =
  let fails line =
    match Protocol.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  fails "not json";
  fails {|{"id":1}|};
  fails {|{"verb":17}|};
  fails {|{"id":"x","verb":"health"}|};
  fails "[1,2,3]";
  fails {|{"verb":"health"|}

let test_field_accessors () =
  let body =
    match Jsonv.parse {|{"n":5,"b":true,"s":"hi"}|} with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "default" 9 (Protocol.int_field ~default:9 body "zzz");
  Alcotest.(check (option int)) "opt" None (Protocol.opt_int_field body "zzz");
  Alcotest.(check bool) "bool" true (Protocol.bool_field body "b");
  Alcotest.(check string) "str" "hi" (Protocol.str_field body "s");
  Alcotest.check_raises "missing str"
    (Protocol.Bad_request "missing string field \"zzz\"") (fun () ->
      ignore (Protocol.str_field body "zzz"));
  Alcotest.check_raises "wrong type"
    (Protocol.Bad_request "field \"s\" must be an integer") (fun () ->
      ignore (Protocol.int_field body "s"))

let test_render_envelopes () =
  let check name expect resp =
    Alcotest.(check string) name expect (Protocol.render resp)
  in
  check "done" {|{"id":1,"status":"ok","verb":"health","payload":{"x":1}}|}
    (Protocol.Done { id = Some 1; verb = "health"; payload = {|{"x":1}|} });
  check "failed null id"
    {|{"id":null,"status":"error","kind":"parse-error","message":"boom \"q\""}|}
    (Protocol.Failed
       { id = None; kind = "parse-error"; message = {|boom "q"|} });
  check "overloaded"
    {|{"id":3,"status":"overloaded","queue_depth":8,"retry_after_ms":100}|}
    (Protocol.Overloaded { id = Some 3; depth = 8; retry_after_ms = 100 });
  check "wall-clock"
    {|{"id":4,"status":"deadline_exceeded","reason":"wall-clock"}|}
    (Protocol.Deadline_exceeded { id = Some 4; reason = Protocol.Wall_clock });
  check "fuel"
    {|{"id":5,"status":"deadline_exceeded","reason":"fuel-exhausted","steps":50}|}
    (Protocol.Deadline_exceeded { id = Some 5; reason = Protocol.Fuel 50 });
  check "poisoned"
    {|{"id":6,"status":"poisoned","signature":"crash:injected","attempts":2}|}
    (Protocol.Poisoned
       { id = Some 6; signature = "crash:injected"; attempts = 2 });
  (* every envelope is itself one line of valid JSON *)
  List.iter
    (fun resp ->
      let line = Protocol.render resp in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Jsonv.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "envelope not JSON (%s): %s" e line)
    [
      Protocol.Done { id = None; verb = "v"; payload = "{}" };
      Protocol.Failed { id = Some 1; kind = "k"; message = "m\nn" };
      Protocol.Overloaded { id = None; depth = 1; retry_after_ms = 1 };
      Protocol.Deadline_exceeded { id = None; reason = Protocol.Wall_clock };
      Protocol.Poisoned { id = None; signature = "wedge"; attempts = 0 };
    ]

(* ---- bounded queue ----------------------------------------------------- *)

let test_bqueue_bounds () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.push q 1 = Bqueue.Pushed 1);
  Alcotest.(check bool) "push 2" true (Bqueue.push q 2 = Bqueue.Pushed 2);
  Alcotest.(check bool) "full" true (Bqueue.push q 3 = Bqueue.Full 2);
  Alcotest.(check int) "depth" 2 (Bqueue.depth q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "room again" true (Bqueue.push q 3 = Bqueue.Pushed 2);
  Bqueue.close q;
  Alcotest.(check bool) "closed" true (Bqueue.push q 4 = Bqueue.Closed);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "drains 3" (Some 3) (Bqueue.pop q);
  Alcotest.(check (option int)) "empty+closed" None (Bqueue.pop q)

let test_bqueue_wakes_blocked_pop () =
  let q : int Bqueue.t = Bqueue.create ~capacity:1 in
  let popper = Domain.spawn (fun () -> Bqueue.pop q) in
  Unix.sleepf 0.02;
  Bqueue.close q;
  Alcotest.(check (option int)) "unblocked by close" None (Domain.join popper)

(* ---- deadlines --------------------------------------------------------- *)

let test_deadline () =
  Alcotest.(check bool) "never" false (Deadline.expired Deadline.never);
  Alcotest.(check bool) "past" true (Deadline.expired (Deadline.after_ms (-10)));
  Alcotest.(check bool) "future" false
    (Deadline.expired (Deadline.after_ms 60_000));
  Alcotest.check_raises "check raises" Deadline.Expired (fun () ->
      Deadline.check (Deadline.after_ms (-1)));
  Deadline.check Deadline.never;
  let early = Deadline.after_ms (-5) in
  Alcotest.(check bool) "earliest picks expired" true
    (Deadline.expired (Deadline.earliest Deadline.never early));
  Alcotest.(check bool) "earliest of two" true
    (Deadline.expired (Deadline.earliest early (Deadline.after_ms 60_000)));
  Alcotest.(check (option int)) "never remaining" None
    (Deadline.remaining_ms Deadline.never);
  (match Deadline.remaining_ms (Deadline.after_ms (-50)) with
  | Some 0 -> ()
  | r ->
    Alcotest.failf "expired remaining = %s"
      (match r with Some n -> string_of_int n | None -> "None"))

(* ---- worker: verbs, isolation, deadlines ------------------------------- *)

let payload_exn name = function
  | Protocol.Done { payload; _ } -> (
    match Jsonv.parse payload with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s payload not JSON: %s" name e)
  | resp -> Alcotest.failf "%s: unexpected %s" name (Protocol.render resp)

let failed_kind name = function
  | Protocol.Failed { kind; _ } -> kind
  | resp -> Alcotest.failf "%s: expected error, got %s" name (Protocol.render resp)

let exec config line = Worker.execute config (request_exn line)

let test_worker_health () =
  let config = fresh_config () in
  let payload = payload_exn "health" (exec config {|{"verb":"health"}|}) in
  Alcotest.(check bool) "has uptime" true
    (Jsonv.member "uptime_ms" payload <> None);
  Alcotest.(check (option int)) "queue depth" (Some 0)
    (Option.bind (Jsonv.member "queue_depth" payload) Jsonv.to_int)

let test_worker_partition () =
  let config = fresh_config () in
  let line =
    Printf.sprintf {|{"id":1,"verb":"partition","file":"%s","timing":8000}|}
      (Lazy.force fir_file)
  in
  let payload = payload_exn "partition" (exec config line) in
  Alcotest.(check (option bool)) "met" (Some true)
    (Option.bind (Jsonv.member "met" payload) Jsonv.to_bool);
  Alcotest.(check (option string)) "status" (Some "met-after-1")
    (Option.bind (Jsonv.member "status" payload) Jsonv.to_str)

let test_worker_analyze () =
  let config = fresh_config () in
  let line =
    Printf.sprintf {|{"verb":"analyze","file":"%s","top":2}|}
      (Lazy.force fir_file)
  in
  let payload = payload_exn "analyze" (exec config line) in
  match Option.bind (Jsonv.member "kernels" payload) Jsonv.to_list with
  | Some [ _; _ ] -> ()
  | Some l -> Alcotest.failf "expected 2 kernels, got %d" (List.length l)
  | None -> Alcotest.fail "no kernels array"

let test_worker_typed_errors () =
  let config = fresh_config () in
  Alcotest.(check string) "unknown verb" "bad-request"
    (failed_kind "verb" (exec config {|{"verb":"reticulate"}|}));
  Alcotest.(check string) "missing field" "bad-request"
    (failed_kind "field" (exec config {|{"verb":"partition"}|}));
  Alcotest.(check string) "missing file" "io:Sys_error"
    (failed_kind "sys"
       (exec config
          {|{"verb":"partition","file":"/nonexistent.mc","timing":1}|}));
  let bad = write_temp ~suffix:".mc" "void main( {" in
  Alcotest.(check string) "frontend" "Frontend_error"
    (failed_kind "frontend"
       (exec config
          (Printf.sprintf {|{"verb":"partition","file":"%s","timing":1}|} bad)));
  let bad_hbc = write_temp ~suffix:".hbc" ".local x 8\n  push 3\n  stor x\n" in
  (match
     exec config
       (Printf.sprintf {|{"verb":"partition","file":"%s","timing":1}|} bad_hbc)
   with
  | Protocol.Failed { kind; message; _ } ->
    Alcotest.(check string) "bytecode frontend" "Frontend_error" kind;
    Alcotest.(check string) "bytecode message"
      (Filename.basename bad_hbc ^ ":3:3: unknown mnemonic \"stor\"")
      message
  | resp -> Alcotest.failf "bytecode: expected error, got %s" (Protocol.render resp));
  let div = write_temp ~suffix:".mc" "int o[1];\nvoid main() { o[0] = 1 / 0; }" in
  Alcotest.(check string) "runtime" "Runtime_error"
    (failed_kind "runtime"
       (exec config
          (Printf.sprintf {|{"verb":"partition","file":"%s","timing":1}|} div)))

let partition_line ?(timing = 8000) file =
  Printf.sprintf {|{"verb":"partition","file":"%s","timing":%d}|} file timing

(* serve loads files through the CLI's loader: the same dispatch on the
   extension, the same refusal text (the CLI prefixes it with "hypar: ") *)
let test_worker_unsupported_input () =
  match exec (fresh_config ()) (partition_line "faults.spec") with
  | Protocol.Failed { kind; message; _ } ->
    Alcotest.(check string) "kind" "bad-request" kind;
    Alcotest.(check string) "message"
      "faults.spec: unsupported input (expected .mc Mini-C, .hbc bytecode \
       or .ir serialised CDFG)"
      message
  | resp -> Alcotest.failf "expected bad-request, got %s" (Protocol.render resp)

let test_worker_loads_every_frontend () =
  let config = fresh_config () in
  let dir =
    List.find Sys.file_exists [ "../examples/bytecode"; "examples/bytecode" ]
  in
  let hbc =
    payload_exn "hbc"
      (exec config (partition_line (Filename.concat dir "dotprod.hbc")))
  in
  Alcotest.(check (option string)) "hbc file" (Some "dotprod.hbc")
    (Option.bind (Jsonv.member "file" hbc) Jsonv.to_str);
  let mc = Lazy.force fir_file in
  let ir =
    write_temp ~suffix:".ir"
      (Hypar_ir.Serialize.to_string (Hypar_core.Flow.prepare_file mc).cdfg)
  in
  let final file =
    Jsonv.member "final" (payload_exn file (exec config (partition_line file)))
  in
  Alcotest.(check (option string)) ".ir final times equal the .mc's"
    (Option.map Jsonv.to_string (final mc))
    (Option.map Jsonv.to_string (final ir))

let test_worker_survives_errors () =
  (* request isolation: a stream of poisonous requests never leaves the
     worker unable to serve the next good one *)
  let config = fresh_config () in
  List.iter
    (fun line ->
      match exec config line with
      | Protocol.Failed _ | Protocol.Deadline_exceeded _ -> ()
      | resp -> Alcotest.failf "expected failure for %s, got %s" line
                  (Protocol.render resp))
    [
      {|{"verb":"nope"}|};
      {|{"verb":"partition","file":"/nonexistent.mc","timing":1}|};
      {|{"verb":"explore","file":"/nonexistent.mc","timings":"10"}|};
      {|{"verb":"faults","file":"/nonexistent.spec"}|};
    ];
  let line =
    Printf.sprintf {|{"verb":"analyze","file":"%s"}|} (Lazy.force fir_file)
  in
  ignore (payload_exn "after errors" (exec config line))

let test_worker_fuel_deadline () =
  let config = fresh_config () in
  let line =
    Printf.sprintf
      {|{"id":9,"verb":"partition","file":"%s","timing":8000,"fuel":50}|}
      (Lazy.force fir_file)
  in
  (match exec config line with
  | Protocol.Deadline_exceeded { id = Some 9; reason = Protocol.Fuel 50 } -> ()
  | resp -> Alcotest.failf "expected fuel exhaustion, got %s"
              (Protocol.render resp));
  (* the per-request default from the config applies too *)
  let config = fresh_config ~default_fuel:50 () in
  let line =
    Printf.sprintf {|{"verb":"analyze","file":"%s"}|} (Lazy.force fir_file)
  in
  match exec config line with
  | Protocol.Deadline_exceeded { reason = Protocol.Fuel 50; _ } -> ()
  | resp -> Alcotest.failf "expected default fuel cap, got %s"
              (Protocol.render resp)

let test_worker_wall_clock_deadline () =
  let config = fresh_config () in
  let line =
    Printf.sprintf
      {|{"verb":"partition","file":"%s","timing":8000,"deadline_ms":0}|}
      (Lazy.force fir_file)
  in
  match exec config line with
  | Protocol.Deadline_exceeded { reason = Protocol.Wall_clock; _ } -> ()
  | resp -> Alcotest.failf "expected wall-clock expiry, got %s"
              (Protocol.render resp)

let test_worker_drain_cancels_inflight () =
  (* a signal drain with a zero grace period expires every in-flight
     request's effective deadline *)
  let config = fresh_config () in
  let drain = Drain.create ~drain_timeout_ms:0 in
  let config = { config with Worker.drain } in
  Drain.request drain Drain.Signal;
  let line =
    Printf.sprintf {|{"verb":"partition","file":"%s","timing":8000}|}
      (Lazy.force fir_file)
  in
  match exec config line with
  | Protocol.Deadline_exceeded { reason = Protocol.Wall_clock; _ } -> ()
  | resp -> Alcotest.failf "expected drain cancellation, got %s"
              (Protocol.render resp)

(* ---- drain ------------------------------------------------------------- *)

let test_drain_first_reason_wins () =
  let d = Drain.create ~drain_timeout_ms:1000 in
  Alcotest.(check bool) "not draining" false (Drain.draining d);
  Alcotest.(check bool) "no cancel deadline" false
    (Deadline.expired (Drain.cancel_deadline d));
  Drain.request d Drain.Eof;
  Drain.request d Drain.Signal;
  Alcotest.(check bool) "draining" true (Drain.draining d);
  Alcotest.(check bool) "eof kept" true (Drain.reason d = Some Drain.Eof);
  Alcotest.(check bool) "eof sets no cancel deadline" true
    (Drain.cancel_deadline d = Deadline.never)

let test_drain_stats () =
  let d = Drain.create ~drain_timeout_ms:1000 in
  Drain.accepted d;
  Drain.accepted d;
  Drain.record d (Protocol.Done { id = None; verb = "v"; payload = "{}" });
  Drain.record d
    (Protocol.Failed { id = None; kind = "k"; message = "m" });
  Drain.request d Drain.Signal;
  Alcotest.(check string) "stats line"
    "hypar serve: drained (signal): accepted=2 completed=1 errors=1 \
     deadline-exceeded=0 rejected=0 poisoned=0"
    (Drain.stats_line d)

(* ---- sessions ---------------------------------------------------------- *)

(* Run one pipe session over real descriptors: requests are pre-written
   to a temp file (so EOF terminates the session), responses land in a
   second temp file. *)
let run_session ?execute ?on_stats ~jobs requests =
  let in_path = write_temp ~suffix:".jsonl" (String.concat "\n" requests ^ "\n") in
  let out_path = write_temp ~suffix:".out" "" in
  let config =
    {
      Server.jobs;
      max_queue = 64;
      drain_timeout_ms = 1000;
      retry_after_ms = 100;
      faults = None;
      backend = None;
      default_deadline_ms = None;
      default_fuel = None;
      supervisor = None;
    }
  in
  let drain = Drain.create ~drain_timeout_ms:config.Server.drain_timeout_ms in
  let in_fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Fun.protect
    ~finally:(fun () -> Unix.close in_fd; Unix.close out_fd)
    (fun () -> Server.run_session ?execute ?on_stats config drain in_fd out_fd);
  let ic = open_in out_path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  (drain, lines)

let session_requests () =
  let fir = Lazy.force fir_file in
  [
    Printf.sprintf {|{"id":1,"verb":"analyze","file":"%s","top":1}|} fir;
    "definitely not json";
    Printf.sprintf {|{"id":2,"verb":"partition","file":"%s","timing":8000}|} fir;
    Printf.sprintf
      {|{"id":3,"verb":"partition","file":"%s","timing":8000,"fuel":50}|} fir;
    {|{"id":4,"verb":"nonsense"}|};
  ]

let test_session_pipe_order () =
  let drain, lines = run_session ~jobs:1 (session_requests ()) in
  Alcotest.(check int) "one response per line" 5 (List.length lines);
  let statuses =
    List.map
      (fun l ->
        match Jsonv.parse l with
        | Ok v -> Option.get (Option.bind (Jsonv.member "status" v) Jsonv.to_str)
        | Error e -> Alcotest.failf "bad envelope %s: %s" l e)
      lines
  in
  Alcotest.(check (list string)) "statuses in request order"
    [ "ok"; "error"; "ok"; "deadline_exceeded"; "error" ]
    statuses;
  Alcotest.(check bool) "eof drain" true (Drain.reason drain = Some Drain.Eof);
  Alcotest.(check string) "stats"
    "hypar serve: drained (eof): accepted=5 completed=2 errors=2 \
     deadline-exceeded=1 rejected=0 poisoned=0"
    (Drain.stats_line drain)

let test_session_jobs_equivalence () =
  (* responses (order-normalised) and counter totals are identical for
     jobs=1 and jobs=4 *)
  let run jobs =
    Hypar_obs.Sink.clear ();
    Hypar_obs.Sink.enable ();
    let _, lines = run_session ~jobs (session_requests ()) in
    let events = Hypar_obs.Sink.events () in
    Hypar_obs.Sink.disable ();
    Hypar_obs.Sink.clear ();
    (List.sort compare lines, events)
  in
  let lines1, events1 = run 1 in
  let lines4, events4 = run 4 in
  Alcotest.(check (list string)) "payloads" lines1 lines4;
  Alcotest.(check (list (pair string int))) "counter totals"
    (Hypar_obs.Counter.totals events1)
    (Hypar_obs.Counter.totals events4);
  let summary events =
    match Hypar_obs.Span.validate events with
    | Ok s -> s.Hypar_obs.Span.names
    | Error e -> Alcotest.failf "unbalanced trace: %s" e
  in
  Alcotest.(check (list (pair string int))) "span names"
    (summary events1) (summary events4)

let test_session_pool_is_supervised () =
  (* every pooled session runs under the supervisor, [supervisor = None]
     included: it reports its final statistics with the whole pool live *)
  let stats = ref None in
  let _, lines =
    run_session ~on_stats:(fun s -> stats := Some s) ~jobs:4
      (session_requests ())
  in
  Alcotest.(check int) "one response per line" 5 (List.length lines);
  match !stats with
  | Some s ->
    Alcotest.(check int) "live workers" 4 s.Hypar_server.Supervisor.live_workers
  | None -> Alcotest.fail "a jobs=4 session did not report supervisor stats"

let test_session_backpressure () =
  (* deterministic overload: 2 workers block on a gate, capacity-1 queue
     holds a third request, the remaining two are refused with typed
     overloaded envelopes; after the gate opens everything completes *)
  let gate = Atomic.make false in
  let started = Atomic.make 0 in
  let execute _config (req : Protocol.request) =
    Atomic.incr started;
    while not (Atomic.get gate) do Unix.sleepf 0.002 done;
    Protocol.Done { id = req.Protocol.id; verb = req.Protocol.verb; payload = "{}" }
  in
  let config =
    {
      Server.jobs = 2;
      max_queue = 1;
      drain_timeout_ms = 1000;
      retry_after_ms = 100;
      faults = None;
      backend = None;
      default_deadline_ms = None;
      default_fuel = None;
      supervisor = None;
    }
  in
  let drain = Drain.create ~drain_timeout_ms:1000 in
  let req_r, req_w = Unix.pipe () in
  let out_path = write_temp ~suffix:".out" "" in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let session =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Unix.close req_r; Unix.close out_fd)
          (fun () -> Server.run_session ~execute config drain req_r out_fd))
  in
  let send line =
    let line = line ^ "\n" in
    ignore (Unix.write_substring req_w line 0 (String.length line))
  in
  (* occupy both workers one request at a time — sending both at once
     could fill the capacity-1 queue before the first pop *)
  let wait_started n =
    let deadline = Unix.gettimeofday () +. 5. in
    while Atomic.get started < n && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.002
    done;
    Alcotest.(check int)
      (Printf.sprintf "%d workers busy" n)
      n (Atomic.get started)
  in
  send {|{"id":1,"verb":"health"}|};
  wait_started 1;
  send {|{"id":2,"verb":"health"}|};
  wait_started 2;
  send {|{"id":3,"verb":"health"}|};  (* queued *)
  send {|{"id":4,"verb":"health"}|};  (* refused *)
  send {|{"id":5,"verb":"health"}|};  (* refused *)
  (* the reader answers overloaded requests synchronously, before it
     reads further input: once both rejections are visible in the stats
     we can release the gate *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rejected () =
    Str_contains.contains (Drain.stats_line drain) "rejected=2"
  in
  while (not (rejected ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Atomic.set gate true;
  Unix.close req_w;
  Domain.join session;
  let ic = open_in out_path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  let count status =
    List.length
      (List.filter
         (fun l ->
           match Jsonv.parse l with
           | Ok v ->
             Option.bind (Jsonv.member "status" v) Jsonv.to_str = Some status
           | Error _ -> false)
         lines)
  in
  Alcotest.(check int) "five envelopes" 5 (List.length lines);
  Alcotest.(check int) "three completed" 3 (count "ok");
  Alcotest.(check int) "two refused" 2 (count "overloaded");
  (* depth 1 on a 2-worker pool is under one pool-width, so the hint
     stays at the configured base *)
  Alcotest.(check int) "hint at base" 2
    (List.length
       (List.filter
          (fun l -> Str_contains.contains l {|"retry_after_ms":100|})
          lines));
  Alcotest.(check string) "stats"
    "hypar serve: drained (eof): accepted=5 completed=3 errors=0 \
     deadline-exceeded=0 rejected=2 poisoned=0"
    (Drain.stats_line drain)

(* ---- load-aware retry hint --------------------------------------------- *)

let test_retry_after_hint () =
  let hint = Server.retry_after_hint in
  Alcotest.(check int) "empty queue" 100 (hint ~base:100 ~jobs:4 ~depth:0);
  Alcotest.(check int) "under one pool-width" 100 (hint ~base:100 ~jobs:4 ~depth:4);
  Alcotest.(check int) "just over" 200 (hint ~base:100 ~jobs:4 ~depth:5);
  Alcotest.(check int) "scales with depth" 800 (hint ~base:100 ~jobs:2 ~depth:16);
  Alcotest.(check int) "custom base" 120 (hint ~base:40 ~jobs:2 ~depth:6);
  Alcotest.(check int) "jobs clamped" 300 (hint ~base:100 ~jobs:0 ~depth:3)

(* ---- request digests (quarantine identity) ------------------------------ *)

let test_request_digest () =
  let digest line = Protocol.digest (request_exn line) in
  Alcotest.(check string) "id-independent"
    (digest {|{"id":1,"verb":"health"}|})
    (digest {|{"id":2,"verb":"health"}|});
  Alcotest.(check string) "missing id too"
    (digest {|{"verb":"health"}|})
    (digest {|{"id":9,"verb":"health"}|});
  Alcotest.(check bool) "body-sensitive" false
    (digest {|{"verb":"health","tag":1}|} = digest {|{"verb":"health","tag":2}|})

(* ---- randomised invariants --------------------------------------------- *)

(* Two pusher and two popper domains hammer one bounded queue; after the
   close, the popped multiset must equal the successfully-pushed
   multiset — nothing lost, nothing duplicated, no matter the
   interleaving. *)
let prop_bqueue_no_loss_no_dup =
  QCheck.Test.make ~name:"bqueue: concurrent push/pop/close keeps every element"
    ~count:25
    QCheck.(pair (int_range 1 8) (int_range 0 100))
    (fun (capacity, n) ->
      let q = Bqueue.create ~capacity in
      let poppers =
        Array.init 2 (fun _ ->
            Domain.spawn (fun () ->
                let rec go acc =
                  match Bqueue.pop q with
                  | None -> acc
                  | Some x -> go (x :: acc)
                in
                go []))
      in
      let pushers =
        Array.init 2 (fun pi ->
            Domain.spawn (fun () ->
                let acc = ref [] in
                for i = 0 to n - 1 do
                  let x = (pi * n) + i in
                  let rec attempt () =
                    match Bqueue.push q x with
                    | Bqueue.Pushed _ -> acc := x :: !acc
                    | Bqueue.Full _ ->
                      Domain.cpu_relax ();
                      attempt ()
                    | Bqueue.Closed -> ()
                  in
                  attempt ()
                done;
                !acc))
      in
      let pushed = Array.to_list pushers |> List.concat_map Domain.join in
      Bqueue.close q;
      let popped = Array.to_list poppers |> List.concat_map Domain.join in
      List.sort compare pushed = List.sort compare popped
      || QCheck.Test.fail_reportf "pushed %d elements, popped %d"
           (List.length pushed) (List.length popped))

(* Random accept/answer sequences: the stats line always balances —
   accepted = answered (completed+errors+deadline+rejected+poisoned)
   plus the requests still unanswered at close. *)
let prop_drain_stats_balance =
  QCheck.Test.make ~name:"drain: stats arithmetic always balances" ~count:100
    QCheck.(list (int_range 0 5))
    (fun ops ->
      let d = Drain.create ~drain_timeout_ms:10 in
      let unanswered = ref 0 in
      List.iter
        (fun op ->
          Drain.accepted d;
          match op with
          | 0 -> Drain.record d (Protocol.Done { id = None; verb = "v"; payload = "{}" })
          | 1 -> Drain.record d (Protocol.Failed { id = None; kind = "k"; message = "m" })
          | 2 -> Drain.record d (Protocol.Overloaded { id = None; depth = 1; retry_after_ms = 1 })
          | 3 -> Drain.record d (Protocol.Deadline_exceeded { id = None; reason = Protocol.Wall_clock })
          | 4 -> Drain.record d (Protocol.Poisoned { id = None; signature = "s"; attempts = 1 })
          | _ -> incr unanswered (* accepted, never answered: in flight at close *))
        ops;
      Drain.request d Drain.Eof;
      Scanf.sscanf (Drain.stats_line d)
        "hypar serve: drained (eof): accepted=%d completed=%d errors=%d \
         deadline-exceeded=%d rejected=%d poisoned=%d"
        (fun accepted completed errors deadline rejected poisoned ->
          accepted = List.length ops
          && accepted
             = completed + errors + deadline + rejected + poisoned + !unanswered
          || QCheck.Test.fail_reportf
               "unbalanced: accepted=%d answered=%d unanswered=%d" accepted
               (completed + errors + deadline + rejected + poisoned)
               !unanswered))

let suite =
  [
    Alcotest.test_case "protocol: parse request" `Quick test_parse_request;
    Alcotest.test_case "protocol: parse errors" `Quick test_parse_request_errors;
    Alcotest.test_case "protocol: field accessors" `Quick test_field_accessors;
    Alcotest.test_case "protocol: render envelopes" `Quick test_render_envelopes;
    Alcotest.test_case "bqueue: bounds and close" `Quick test_bqueue_bounds;
    Alcotest.test_case "bqueue: close wakes pop" `Quick
      test_bqueue_wakes_blocked_pop;
    Alcotest.test_case "deadline: algebra" `Quick test_deadline;
    Alcotest.test_case "worker: health" `Quick test_worker_health;
    Alcotest.test_case "worker: partition" `Quick test_worker_partition;
    Alcotest.test_case "worker: analyze" `Quick test_worker_analyze;
    Alcotest.test_case "worker: typed errors" `Quick test_worker_typed_errors;
    Alcotest.test_case "worker: unsupported input" `Quick
      test_worker_unsupported_input;
    Alcotest.test_case "worker: loads every frontend" `Quick
      test_worker_loads_every_frontend;
    Alcotest.test_case "worker: survives poisonous requests" `Quick
      test_worker_survives_errors;
    Alcotest.test_case "worker: fuel deadline" `Quick test_worker_fuel_deadline;
    Alcotest.test_case "worker: wall-clock deadline" `Quick
      test_worker_wall_clock_deadline;
    Alcotest.test_case "worker: drain cancels in-flight" `Quick
      test_worker_drain_cancels_inflight;
    Alcotest.test_case "drain: first reason wins" `Quick
      test_drain_first_reason_wins;
    Alcotest.test_case "drain: stats" `Quick test_drain_stats;
    Alcotest.test_case "session: pipe order and envelopes" `Quick
      test_session_pipe_order;
    Alcotest.test_case "session: jobs-independent" `Quick
      test_session_jobs_equivalence;
    Alcotest.test_case "session: pool is supervised" `Quick
      test_session_pool_is_supervised;
    Alcotest.test_case "session: backpressure" `Quick test_session_backpressure;
    Alcotest.test_case "overload: load-aware retry hint" `Quick
      test_retry_after_hint;
    Alcotest.test_case "protocol: request digest" `Quick test_request_digest;
    QCheck_alcotest.to_alcotest prop_bqueue_no_loss_no_dup;
    QCheck_alcotest.to_alcotest prop_drain_stats_balance;
  ]
