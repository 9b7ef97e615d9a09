module Jsonv = Hypar_obs.Jsonv
module Flow = Hypar_core.Flow
module Platform = Hypar_core.Platform
module Engine = Hypar_core.Engine
module P = Protocol

type config = {
  faults : Hypar_resilience.Fault.spec option;
  backend : Hypar_profiling.Profile.backend option;
  default_deadline_ms : int option;
  default_fuel : int option;
  drain : Drain.t;
  queue_depth : unit -> int;
  on_poll : (unit -> unit) option;
}

(* --- request budget ----------------------------------------------------- *)

let deadline_of config body =
  match
    match P.opt_int_field body "deadline_ms" with
    | Some _ as ms -> ms
    | None -> config.default_deadline_ms
  with
  | None -> Deadline.never
  | Some ms -> Deadline.after_ms ms

let fuel_of config body =
  match P.opt_int_field body "fuel" with
  | Some _ as f -> f
  | None -> config.default_fuel

(* The effective deadline is recomputed on every poll: a signal drain
   arriving mid-request tightens the budget of already-running work.
   [on_poll] is the supervisor's heartbeat: every poll proves the worker
   is making progress, which is what separates a slow request from a
   wedged one. *)
let poll_hook config deadline () =
  (match config.on_poll with Some beat -> beat () | None -> ());
  Deadline.check (Deadline.earliest deadline (Drain.cancel_deadline config.drain))

(* The wall-clock budget a request asked for, without starting the
   clock: the supervisor adds it to its wedge-detection threshold so a
   long-deadline request is not mistaken for a stuck one. *)
let request_deadline_ms config (req : P.request) =
  match P.opt_int_field req.P.body "deadline_ms" with
  | Some _ as ms -> ms
  | None -> config.default_deadline_ms
  | exception P.Bad_request _ -> config.default_deadline_ms

(* --- payload rendering -------------------------------------------------- *)

let num i = Jsonv.Num (float_of_int i)

let times_json (t : Engine.times) =
  Jsonv.Obj
    [
      ("t_fpga", num t.Engine.t_fpga);
      ("t_coarse_cgc", num t.Engine.t_coarse_cgc);
      ("t_coarse", num t.Engine.t_coarse);
      ("t_comm", num t.Engine.t_comm);
      ("t_total", num t.Engine.t_total);
    ]

let degrade config platform =
  match config.faults with
  | None -> platform
  | Some spec -> (
    match Hypar_resilience.Degrade.apply spec platform with
    | Ok degraded -> degraded
    | Error msg ->
      raise (P.Bad_request (Printf.sprintf "fault spec does not apply: %s" msg)))

(* --- verbs -------------------------------------------------------------- *)

let partition config body =
  let file = P.str_field body "file" in
  let timing = P.int_field body "timing" in
  let area = P.int_field ~default:1500 body "area" in
  let cgcs = P.int_field ~default:2 body "cgcs" in
  let rows = P.int_field ~default:2 body "rows" in
  let cols = P.int_field ~default:2 body "cols" in
  let ratio = P.int_field ~default:3 body "clock_ratio" in
  let granularity = if P.bool_field body "loops" then `Loop else `Block in
  let pipelined = P.bool_field body "pipelined" in
  let deadline = deadline_of config body in
  let poll = poll_hook config deadline in
  let platform =
    degrade config
      (Platform.of_geometry ~area ~cgcs ~rows ~cols ~clock_ratio:ratio)
  in
  let prepared =
    Flow.prepare_file ?backend:config.backend ~poll
      ?max_steps:(fuel_of config body) file
  in
  poll ();
  let r =
    Engine.run ~granularity ~cgc_pipelining:pipelined platform
      ~timing_constraint:timing prepared.Flow.cdfg prepared.Flow.profile
  in
  poll ();
  Jsonv.to_string
    (Jsonv.Obj
       [
         ("file", Jsonv.Str (Filename.basename file));
         ("status", Jsonv.Str (Engine.status_key r.Engine.status));
         ("met", Jsonv.Bool (Engine.met r));
         ("timing_constraint", num timing);
         ("initial", times_json r.Engine.initial);
         ("final", times_json r.Engine.final);
         ("reduction_percent", Jsonv.Num (Engine.reduction_percent r));
         ("moved", Jsonv.Arr (List.map num r.Engine.moved));
         ("steps", num (List.length r.Engine.steps));
       ])

let analyze config body =
  let file = P.str_field body "file" in
  let top = P.int_field ~default:8 body "top" in
  let deadline = deadline_of config body in
  let poll = poll_hook config deadline in
  let prepared =
    Flow.prepare_file ?backend:config.backend ~poll
      ?max_steps:(fuel_of config body) file
  in
  poll ();
  let analysis =
    Hypar_analysis.Kernel.analyse prepared.Flow.cdfg prepared.Flow.profile
  in
  let entry (e : Hypar_analysis.Kernel.entry) =
    Jsonv.Obj
      [
        ("block_id", num e.Hypar_analysis.Kernel.block_id);
        ("label", Jsonv.Str e.Hypar_analysis.Kernel.label);
        ("exec_freq", num e.Hypar_analysis.Kernel.exec_freq);
        ("bb_weight", num e.Hypar_analysis.Kernel.bb_weight);
        ("total_weight", num e.Hypar_analysis.Kernel.total_weight);
        ("loop_depth", num e.Hypar_analysis.Kernel.loop_depth);
      ]
  in
  Jsonv.to_string
    (Jsonv.Obj
       [
         ("file", Jsonv.Str (Filename.basename file));
         ( "kernels",
           Jsonv.Arr (List.map entry (Hypar_analysis.Kernel.top analysis top))
         );
       ])

let axis_field body name ~default =
  match Jsonv.member name body with
  | None -> default
  | Some (Jsonv.Str s) -> (
    match Hypar_explore.Space.axis_of_string s with
    | Ok axis -> axis
    | Error e -> raise (P.Bad_request (Printf.sprintf "field %S: %s" name e)))
  | Some v -> (
    match Jsonv.to_int v with
    | Some i -> [ i ]
    | None ->
      raise
        (P.Bad_request
           (Printf.sprintf "field %S must be an axis string or an integer" name)))

let explore config body =
  let module Driver = Hypar_explore.Driver in
  let file = P.str_field body "file" in
  let timings = axis_field body "timings" ~default:[] in
  if timings = [] then raise (P.Bad_request "missing axis field \"timings\"");
  let areas = axis_field body "areas" ~default:[ 500; 1500; 5000 ] in
  let cgcs = axis_field body "cgcs" ~default:[ 1; 2; 3 ] in
  let rows = axis_field body "rows" ~default:[ 2 ] in
  let cols = axis_field body "cols" ~default:[ 2 ] in
  let ratios = axis_field body "clock_ratios" ~default:[ 3 ] in
  let retries = P.int_field ~default:0 body "retries" in
  let pareto_only = P.bool_field body "pareto_only" in
  let fuel = fuel_of config body in
  let deadline = deadline_of config body in
  let poll = poll_hook config deadline in
  let prepared =
    Flow.prepare_file ?backend:config.backend ~poll ?max_steps:fuel file
  in
  poll ();
  let space =
    Hypar_explore.Space.make ~areas ~cgcs ~rows ~cols ~clock_ratios:ratios
      ~timings ()
  in
  match
    Driver.run ~workload:(Filename.basename file) ?faults:config.faults
      ~retries ?point_fuel:fuel prepared space
  with
  | Error msg -> raise (P.Bad_request msg)
  | Ok summary -> (
    poll ();
    (* Render.json is pretty-printed; envelopes are one line each, so
       re-render it compactly. *)
    let rendered = Hypar_explore.Render.json ~pareto_only summary in
    match Jsonv.parse rendered with
    | Ok v -> Jsonv.to_string v
    | Error _ -> rendered)

let faults body =
  let text =
    match P.opt_str_field body "text" with
    | Some text -> Hypar_resilience.Spec.of_string text
    | None -> Hypar_resilience.Spec.load (P.str_field body "file")
  in
  match text with
  | Error msg -> raise (P.Bad_request msg)
  | Ok spec ->
    Printf.sprintf {|{"spec":%s}|} (Hypar_resilience.Spec.to_json spec)

let dispatch config (req : P.request) =
  match req.P.verb with
  | "health" ->
    Drain.health_payload config.drain ~queue_depth:(config.queue_depth ())
  | "partition" -> partition config req.P.body
  | "analyze" -> analyze config req.P.body
  | "explore" -> explore config req.P.body
  | "faults" -> faults req.P.body
  | verb -> raise (P.Bad_request (Printf.sprintf "unknown verb %S" verb))

(* --- the isolation boundary --------------------------------------------- *)

let exn_kind = function
  | Hypar_ir.Verify.Failed _ -> "Verify.Failed"
  | Hypar_ir.Frontend.Error _ -> "Frontend_error"
  | Hypar_profiling.Interp.Runtime_error _ -> "Runtime_error"
  | e -> Printexc.exn_slot_name e

let exn_message = function
  | Hypar_ir.Verify.Failed { context; violations } ->
    Printf.sprintf "IR verification failed after %S: %s" context
      (String.trim (Hypar_ir.Verify.report violations))
  | Hypar_profiling.Interp.Runtime_error msg -> msg
  | e -> Flow.load_error_message e

let request_label = function
  | Some n -> string_of_int n
  | None -> "without id"

let envelope_of_exn id = function
  | Deadline.Expired -> P.Deadline_exceeded { id; reason = P.Wall_clock }
  | Hypar_profiling.Interp.Fuel_exhausted { steps } ->
    P.Deadline_exceeded { id; reason = P.Fuel steps }
  | P.Bad_request msg -> P.Failed { id; kind = "bad-request"; message = msg }
  | Flow.Unsupported_input _ as e ->
    P.Failed { id; kind = "bad-request"; message = Flow.load_error_message e }
  | (Stack_overflow | Out_of_memory) as e ->
    (* resource-exhaustion crashes are a different severity class from a
       verb reporting a domain error: rank them as [crash:*] so clients
       and operators can tell a dying evaluation from a diagnostic, and
       name the request so the offender is identifiable in logs *)
    P.Failed
      {
        id;
        kind = "crash:" ^ Printexc.exn_slot_name e;
        message =
          Printf.sprintf "evaluation aborted by %s (request %s)"
            (Printexc.exn_slot_name e) (request_label id);
      }
  (* I/O failures inside a verb handler are environmental, not a bug in
     the request: rank them as [io:*] and name the request so operators
     can separate a missing input file from a malformed request *)
  | Sys_error msg ->
    P.Failed
      {
        id;
        kind = "io:Sys_error";
        message = Printf.sprintf "%s (request %s)" msg (request_label id);
      }
  | Unix.Unix_error (err, fn, arg) ->
    P.Failed
      {
        id;
        kind = "io:Unix_error";
        message =
          Printf.sprintf "%s%s: %s (request %s)" fn
            (if arg = "" then "" else " " ^ arg)
            (Unix.error_message err) (request_label id);
      }
  | e -> P.Failed { id; kind = exn_kind e; message = exn_message e }

let execute config (req : P.request) =
  let id = req.P.id in
  Hypar_obs.Span.with_ ~cat:"server"
    ~args:[ ("verb", Hypar_obs.Event.Str req.P.verb) ]
    "server.request"
  @@ fun () ->
  match dispatch config req with
  | payload -> P.Done { id; verb = req.P.verb; payload }
  | exception e -> envelope_of_exn id e
