(* One benchmark run: set up several times, then either time the
   workload with tracing off (end-to-end metrics) or run it traced
   (per-layer metrics), check every output, print a readable report and,
   as the last line, the JSON result. *)

module Sink = Hypar_obs.Sink

module type WORKLOAD = sig
  type env

  val setup : seed:int -> env
  val teardown : env -> unit

  val timed :
    env -> Tally.t -> until:float -> min_ops:int -> hard_stop:float -> float
  (** The timed phase; returns its wall seconds. *)

  val final_cycles : env -> int list
  (** Final Eq.-2 cycles of every partition in one pass of the workload. *)

  val verify : env -> string list * string list
  (** Reference checks after the timed phase: problems, report lines. *)

  val traced_op : env -> Tally.t -> Layers.t -> unit -> float list
  (** One pass, under whatever sink state the caller set; latencies. *)

  val layer_pass : env -> Layers.t -> Tally.t -> unit
  (** Each layer's public calls on the workload's programs. *)
end

type options = { workload : string; seed : int; seconds : int; trace : bool }

(* Set-up runs at least [setups] times and for at least [setup_s]
   seconds, so that a set-up of a few milliseconds is sampled often
   enough for a steady median. *)
let setups = 15
let setup_s = 2.0
let now = Unix.gettimeofday

(* --- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; detail : string }

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> go ())
      in
      go ())

(* Spans the program already emits for steps no public call isolates. *)
let span_self_ms =
  [ ("ir.global_cse_self_ms", "ir.pass.global_cse");
    ("ir.dataflow_avail_self_ms", "dataflow.avail");
    ("ir.liveness_self_ms", "dataflow.liveness") ]

let span_counts =
  [ ("ir.liveness_calls", "dataflow.liveness");
    ("core.characterisations", "engine.characterise");
    ("core.engine_moves", "engine.move") ]

let add_span_metrics layers stats =
  List.iter
    (fun (metric, span) ->
      let s = Spans.find stats span in
      if s.count > 0 then Layers.add layers metric (s.self_us /. 1000.0))
    span_self_ms;
  List.iter
    (fun (metric, span) ->
      Layers.add layers metric (float_of_int (Spans.find stats span).count))
    span_counts

let per_layer =
  [ ("minic.compile_ms", "ms"); ("bytecode.compile_ms", "ms");
    ("ir.optimize_ms", "ms"); ("ir.instrs_out", "count");
    ("ir.global_cse_self_ms", "ms"); ("ir.dataflow_avail_self_ms", "ms");
    ("ir.liveness_self_ms", "ms"); ("ir.liveness_calls", "count");
    ("profiling.run_ms", "ms"); ("profiling.instrs_executed", "count");
    ("profiling.ns_per_instr", "ns"); ("analysis.kernels_ms", "ms");
    ("finegrain.map_ms", "ms"); ("coarsegrain.map_ms", "ms");
    ("core.characterise_ms", "ms"); ("core.characterisations", "count");
    ("core.characterise_useful_ratio", "ratio"); ("core.engine_ms", "ms");
    ("core.engine_moves", "count"); ("explore.points_per_s", "points/s");
    ("explore.cache_hit_ratio", "ratio"); ("server.exec_ms", "ms");
    ("server.wait_ms", "ms"); ("server.overhead_ms", "ms");
    ("server.rejected", "count"); ("server.respawns", "count");
    ("server.retries", "count"); ("obs.overhead_pct", "%");
    ("host.calibration_ms", "ms") ]

(* Counts that must read the same in every pass of a traced run. *)
let exact_counts =
  [ "ir.instrs_out"; "profiling.instrs_executed"; "ir.liveness_calls";
    "core.characterisations"; "core.engine_moves"; "core.distinct_platforms";
    "explore.points"; "explore.cache_hits"; "server.rejected";
    "server.respawns"; "server.retries" ]

(* A per-layer value: the median over passes, falling back to the
   set-ups for spans only set-up reaches (explore_sweep's optimizer). *)
let layer_value ~layers ~setup name =
  let m n =
    match Layers.median layers n with
    | Some v -> Some v
    | None -> Layers.median setup n
  in
  let ratio ?(scale = 1.0) a b =
    match (m a, m b) with
    | Some x, Some y when y > 0.0 -> Some (scale *. x /. y)
    | _ -> None
  in
  match name with
  | "profiling.ns_per_instr" ->
    ratio ~scale:1e6 "profiling.run_ms" "profiling.instrs_executed"
  | "core.characterise_useful_ratio" ->
    ratio "core.distinct_platforms" "core.characterisations"
  | "explore.points_per_s" -> ratio ~scale:1000.0 "explore.points" "explore.run_ms"
  | "explore.cache_hit_ratio" -> ratio "explore.cache_hits" "explore.points"
  | n -> m n

(* --- output ------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_report opts ~mode metrics ~notes ~(tally : Tally.t) =
  Printf.printf "perfbench %s  seed=%d  seconds=%d  %s\n" opts.workload opts.seed
    opts.seconds mode;
  List.iter
    (fun m ->
      Printf.printf "  %-32s %14.4f %-9s %s\n" m.name m.value m.unit m.detail)
    metrics;
  List.iter (Printf.printf "  %s\n") notes;
  List.iter (Printf.printf "  PROBLEM: %s\n") (List.rev tally.problems)

let print_json ~correct ~(tally : Tally.t) metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed (String.concat ", " fields)

let record_verification tally (problems, _) =
  match problems with
  | [] -> Tally.record tally None
  | first :: rest ->
    Tally.record tally (Some ("verification: " ^ first));
    List.iter (fun p -> Tally.problem tally ("verification: " ^ p)) rest

(* --- the two modes ---------------------------------------------------- *)

let untraced (type e) (module W : WORKLOAD with type env = e) opts env
    ~setup_times ~hard_stop =
  let tally = Tally.create () in
  let min_ops = Stats.min_samples 90.0 in
  let wall =
    W.timed env tally
      ~until:(now () +. float_of_int opts.seconds)
      ~min_ops ~hard_stop
  in
  let ops = tally.attempted in
  let verification = W.verify env in
  record_verification tally verification;
  let lat = tally.latencies_ms and raw = tally.raw_ms in
  let p50 = Stats.percentile 50.0 lat and p90 = Stats.percentile 90.0 lat in
  let raw_p p = (Stats.percentile p raw).value in
  if p90.above < Stats.min_above then
    Tally.problem tally
      (Printf.sprintf "only %d samples above p90 (need %d)" p90.above Stats.min_above);
  let finals = W.final_cycles env in
  let host =
    Printf.sprintf
      "host: kernel median %.3f ms over %d measurements (reference %.1f ms); \
       times above are scaled to the reference host, raw beside them"
      (Stats.median tally.calibrations_ms)
      (List.length tally.calibrations_ms) Host.reference_ms
  in
  let metrics =
    [ { name = "setup_s"; value = Stats.median (List.map fst setup_times); unit = "s";
        detail =
          Printf.sprintf "median of %d set-ups; raw %.4f" (List.length setup_times)
            (Stats.median (List.map snd setup_times)) };
      { name = "latency_ms.p50"; value = p50.value; unit = "ms";
        detail =
          (let q1, _, q3 = Stats.quartiles lat in
           Printf.sprintf "n=%d, quartiles %.3f-%.3f; raw %.3f" p50.samples q1 q3
             (raw_p 50.0)) };
      { name = "latency_ms.p90"; value = p90.value; unit = "ms";
        detail =
          Printf.sprintf "n=%d, %d above; raw %.3f" p90.samples p90.above (raw_p 90.0) };
      { name = "throughput_ops_per_s"; value = float_of_int ops /. tally.scaled_busy_s;
        unit = "ops/s";
        detail =
          Printf.sprintf "%d ops in %.2f s, %.2f s of it measuring the host; raw %.4f"
            ops wall (wall -. tally.busy_s) (float_of_int ops /. tally.busy_s) };
      { name = "error_rate";
        value = float_of_int tally.failed /. float_of_int tally.attempted;
        unit = "fraction";
        detail = Printf.sprintf "%d of %d ops failed (incl. 1 verification op)"
            tally.failed tally.attempted };
      { name = "peak_rss_mb"; value = peak_rss_mb (); unit = "MB"; detail = "VmHWM" };
      { name = "sim.final_cycles";
        value =
          (if finals = [] then (Tally.problem tally "no partition completed"; 0.0)
           else Stats.geomean (List.map float_of_int finals));
        unit = "cycles";
        detail = Printf.sprintf "geomean of %d partitions, simulated FPGA cycles"
            (List.length finals) } ]
  in
  (tally, metrics, host :: snd verification)

let write_trace opts tally events =
  let path =
    Filename.concat Work.root
      (Printf.sprintf "trace-%s-seed%d.json" opts.workload opts.seed)
  in
  Work.mkdir Work.root;
  Hypar_obs.Export.write_file path (Hypar_obs.Export.chrome events);
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Result.bind (Hypar_obs.Export.parse_chrome text) Hypar_obs.Span.validate with
  | Ok s ->
    Printf.sprintf "trace of the first traced pass: %s (%d events, %d spans, balanced)"
      path s.events s.spans
  | Error e ->
    Tally.record tally (Some ("trace does not validate: " ^ e));
    "trace: " ^ path ^ " INVALID"

let traced (type e) (module W : WORKLOAD with type env = e) opts env ~setup
    ~hard_stop =
  let tally = Tally.create () and layers = Layers.create () in
  let until = now () +. float_of_int opts.seconds in
  let off = ref [] and on = ref [] and first = ref None and passes = ref 0 in
  while (!passes < 3 || now () < until) && now () < hard_stop do
    Sink.disable ();
    off := W.traced_op env tally layers () @ !off;
    Sink.clear ();
    Sink.enable ();
    let lat = W.traced_op env tally layers () in
    Sink.disable ();
    let events = Sink.events () in
    Sink.clear ();
    on := lat @ !on;
    if !first = None then first := Some events;
    add_span_metrics layers (Spans.aggregate events);
    W.layer_pass env layers tally;
    Layers.add layers "host.calibration_ms" (Host.measure_ms ());
    Layers.end_pass layers;
    incr passes
  done;
  let overhead = ((Stats.median !on /. Stats.median !off) -. 1.0) *. 100.0 in
  Layers.sample layers "obs.overhead_pct" overhead;
  let verification = W.verify env in
  record_verification tally verification;
  List.iter
    (fun n -> Tally.problem tally (n ^ " differs between passes"))
    (Layers.varying layers exact_counts);
  let trace_note = write_trace opts tally (Option.value !first ~default:[]) in
  let metrics =
    List.map
      (fun (name, unit) ->
        let value =
          match layer_value ~layers ~setup name with
          | Some v -> v
          | None ->
            Tally.problem tally (name ^ " was not measured");
            0.0
        in
        let n = List.length (Layers.values layers name) in
        { name; value; unit;
          detail = (if n > 0 then Printf.sprintf "median of %d" n else "") })
      per_layer
  in
  let notes =
    Printf.sprintf "%d passes; op latency median %.3f ms untraced (n=%d), %.3f ms traced (n=%d)"
      !passes (Stats.median !off) (List.length !off) (Stats.median !on) (List.length !on)
    :: trace_note :: snd verification
  in
  (tally, metrics, notes)

let run (type e) (module W : WORKLOAD with type env = e) opts ~started =
  let hard_stop = started +. 150.0 in
  let setup = Layers.create () in
  (* several set-ups, each timed on its own (the first from process
     start) and scaled by a host measurement taken just after it, as
     (scaled, raw) seconds; the last one's environment is the one
     measured *)
  let rec set_up i t0 times =
    if opts.trace then (Sink.clear (); Sink.enable ());
    let env = W.setup ~seed:opts.seed in
    let raw = now () -. t0 in
    if opts.trace then begin
      Sink.disable ();
      add_span_metrics setup (Spans.aggregate (Sink.events ()));
      Layers.end_pass setup;
      Sink.clear ()
    end;
    let times = (raw *. Host.reference_ms /. Host.measure_ms (), raw) :: times in
    if i + 1 >= setups && now () -. started >= setup_s then (times, env)
    else begin
      W.teardown env;
      set_up (i + 1) (now ()) times
    end
  in
  let setup_times, env = set_up 0 started [] in
  let tally, metrics, notes =
    if opts.trace then traced (module W) opts env ~setup ~hard_stop
    else untraced (module W) opts env ~setup_times ~hard_stop
  in
  W.teardown env;
  Work.cleanup ();
  print_report opts ~mode:(if opts.trace then "traced" else "untraced") metrics ~notes ~tally;
  let correct = tally.failed = 0 && tally.problems = [] in
  let reported =
    if opts.trace then metrics
    else List.filter (fun m -> m.name <> "error_rate") metrics
  in
  print_json ~correct ~tally reported
