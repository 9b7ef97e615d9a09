(* Benchmark harness: regenerates every table of the paper's evaluation
   section (Tables 1-3), the shape claims of §4, ablations over the design
   axes and the extensions.  test/paper.t and test/ablation.t pin their
   output.  Six timing gates ride along (obs, resilience, serve and soak
   at 2% overhead each, interp at 6x on JPEG, fuzz throughput and
   determinism); each exits 1 when it misses its bound, and they run only
   when named.  Three of them write BENCH_{soak,interp,fuzz}.json into the
   current directory.

   Run the paper's sections:  dune exec bench/main.exe
   Run some sections:         dune exec bench/main.exe -- table2 ablation:afpga
   Run the timing gates:      dune exec bench/main.exe -- obs resilience serve soak interp fuzz

   Absolute cycle counts are produced by our models of the paper's models
   (see DESIGN.md); EXPERIMENTS.md compares shapes against the published
   numbers. *)

module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform
module Ofdm = Hypar_apps.Ofdm
module Jpeg = Hypar_apps.Jpeg

let section_header name =
  Printf.printf "\n================ %s ================\n" name

let platform ?(area = 1500) ?(cgcs = 2) ?(rows = 2) ?(cols = 2) ?(ratio = 3) ()
    =
  Platform.make ~clock_ratio:ratio
    ~fpga:(Hypar_finegrain.Fpga.make ~area ())
    ~cgc:(Hypar_coarsegrain.Cgc.make ~cgcs ~rows ~cols ())
    ()

let apps () =
  [
    ("OFDM", Ofdm.prepared (), Ofdm.timing_constraint, Ofdm.symbols);
    ("JPEG", Jpeg.prepared (), Jpeg.timing_constraint, Jpeg.blocks);
  ]

(* ---- Table 1: ordered total weights of the basic blocks ---------------- *)

let paper_table1 =
  [
    ( "OFDM",
      [ (22, 336, 115, 38640); (12, 1200, 25, 30000); (3, 864, 6, 5184);
        (5, 370, 12, 4440); (42, 800, 5, 4000); (32, 560, 6, 3360);
        (29, 448, 7, 3136); (21, 147, 18, 2646) ] );
    ( "JPEG",
      [ (6, 355024, 3, 1065072); (2, 8192, 85, 696320); (1, 8192, 83, 679936);
        (22, 65536, 5, 327680); (8, 30927, 8, 247416); (3, 65536, 3, 196608);
        (16, 63540, 3, 190620); (17, 63540, 2, 127080) ] );
  ]

let table1 () =
  section_header "Table 1 — ordered total weights of basic blocks";
  List.iter
    (fun (name, prepared, _, _) ->
      let analysis =
        Hypar_analysis.Kernel.analyse prepared.Flow.cdfg prepared.Flow.profile
      in
      print_string
        (Hypar_analysis.Table.render ~top:8
           ~title:(Printf.sprintf "%s — measured" name)
           analysis);
      print_newline ();
      Printf.printf "%s — paper reference:\n" name;
      Printf.printf
        "Basic Block no. | exec. freq. | Operations weight | Total weight\n";
      List.iter
        (fun (bb, freq, w, total) ->
          Printf.printf "%15d | %11d | %17d | %12d\n" bb freq w total)
        (List.assoc name paper_table1);
      print_newline ())
    (apps ())

(* ---- Tables 2 and 3: partitioning on the four configurations ----------- *)

let paper_partitioning =
  [
    ( "OFDM",
      "paper: initial 263408/124080; in-CGC 53184|41472; moved 22,12,3 | \
       22,12; final 57088|47856|56864|46512; reduction 78.3|81.8|54.1|62.5" );
    ( "JPEG",
      "paper: initial 18434e3/12399e3; in-CGC 5817e3|5699e3; moved 6,2,1; \
       final 10558e3|10411e3|10423e3|10227e3; reduction 42.7|43.5|15.9|17.5" );
  ]

let partition_table name prepared timing_constraint =
  let runs =
    List.map
      (fun pl -> Flow.partition pl ~timing_constraint prepared)
      (Platform.paper_configs ())
  in
  print_string
    (Hypar_core.Result_table.render
       ~title:(Printf.sprintf "%s partitioning — measured" name)
       runs);
  Printf.printf "%s\n" (List.assoc name paper_partitioning)

let table2 () =
  section_header "Table 2 — OFDM partitioning (constraint 60000 cycles)";
  partition_table "OFDM" (Ofdm.prepared ()) Ofdm.timing_constraint

let table3 () =
  section_header "Table 3 — JPEG partitioning (constraint 11e6 cycles)";
  partition_table "JPEG" (Jpeg.prepared ()) Jpeg.timing_constraint

(* ---- Ablation A: A_FPGA sweep ------------------------------------------ *)

let ablation_afpga () =
  section_header "Ablation A — A_FPGA sweep (two 2x2 CGCs)";
  List.iter
    (fun (name, prepared, timing_constraint, _) ->
      Printf.printf "%s (constraint %d):\n" name timing_constraint;
      Printf.printf "%8s %16s %16s %10s %7s\n" "A_FPGA" "initial" "final"
        "reduction" "moved";
      List.iter
        (fun area ->
          let r =
            Flow.partition (platform ~area ()) ~timing_constraint prepared
          in
          Printf.printf "%8d %16d %16d %9.1f%% %7d\n" area
            r.Engine.initial.Engine.t_total r.Engine.final.Engine.t_total
            (Engine.reduction_percent r)
            (List.length r.Engine.moved))
        [ 500; 1000; 1500; 2500; 5000; 10000 ];
      print_newline ())
    (apps ())

(* ---- Ablation B: CGC count and geometry -------------------------------- *)

let ablation_cgc () =
  section_header "Ablation B — CGC data-path sweep (A_FPGA = 1500)";
  List.iter
    (fun (name, prepared, timing_constraint, _) ->
      Printf.printf "%s:\n" name;
      Printf.printf "%14s %16s %16s %10s\n" "data-path" "cycles-in-CGC" "final"
        "reduction";
      List.iter
        (fun (cgcs, rows, cols) ->
          let r =
            Flow.partition (platform ~cgcs ~rows ~cols ()) ~timing_constraint
              prepared
          in
          Printf.printf "%14s %16d %16d %9.1f%%\n"
            (Printf.sprintf "%d x %dx%d" cgcs rows cols)
            r.Engine.final.Engine.t_coarse_cgc
            r.Engine.final.Engine.t_total
            (Engine.reduction_percent r))
        [ (1, 2, 2); (2, 2, 2); (3, 2, 2); (4, 2, 2); (2, 1, 2); (2, 2, 4) ];
      print_newline ())
    (apps ())

(* ---- Ablation C: clock ratio ------------------------------------------- *)

let ablation_clock_ratio () =
  section_header "Ablation C — T_FPGA/T_CGC ratio (paper assumes 3)";
  List.iter
    (fun (name, prepared, timing_constraint, _) ->
      Printf.printf "%s:\n" name;
      Printf.printf "%8s %16s %10s %7s\n" "ratio" "final" "reduction" "moved";
      List.iter
        (fun ratio ->
          let r =
            Flow.partition (platform ~ratio ()) ~timing_constraint prepared
          in
          Printf.printf "%8d %16d %9.1f%% %7d\n" ratio
            r.Engine.final.Engine.t_total
            (Engine.reduction_percent r)
            (List.length r.Engine.moved))
        [ 1; 2; 3; 4; 6 ];
      print_newline ())
    (apps ())

(* ---- Ablation D: communication-model sensitivity ------------------------ *)

let ablation_comm () =
  section_header "Ablation D — t_comm pricing (transition vs per-invocation)";
  List.iter
    (fun (name, prepared, timing_constraint, _) ->
      Printf.printf "%s:\n" name;
      Printf.printf "%16s %16s %16s %8s\n" "pricing" "t_comm" "final" "met";
      List.iter
        (fun (label, pricing) ->
          let r =
            Engine.run ~comm_pricing:pricing
              (platform ())
              ~timing_constraint prepared.Flow.cdfg prepared.Flow.profile
          in
          Printf.printf "%16s %16d %16d %8b\n" label
            r.Engine.final.Engine.t_comm r.Engine.final.Engine.t_total
            (Engine.met r))
        [ ("transition", `Transition); ("per-invocation", `Per_invocation) ];
      print_newline ())
    (apps ())

(* ---- Ablation I: input scaling ------------------------------------------- *)

(* Eq. 3/4 weight every block by Iter(BB): doubling the payload must
   (asymptotically) double every time component. *)
let ablation_scaling () =
  section_header "Ablation I — OFDM payload scaling (Iter() accounting)";
  Printf.printf "%8s %16s %16s %16s %10s\n" "symbols" "initial" "final"
    "t_comm" "reduction";
  List.iter
    (fun symbols ->
      let prepared =
        Flow.prepare
          ~name:(Printf.sprintf "ofdm%d" symbols)
          ~inputs:(Ofdm.inputs_for ~symbols ())
          (Ofdm.source_for ~symbols)
      in
      let r =
        Flow.partition (platform ())
          ~timing_constraint:(Ofdm.timing_constraint * symbols / Ofdm.symbols)
          prepared
      in
      Printf.printf "%8d %16d %16d %16d %9.1f%%\n" symbols
        r.Engine.initial.Engine.t_total r.Engine.final.Engine.t_total
        r.Engine.final.Engine.t_comm
        (Engine.reduction_percent r))
    [ 2; 4; 6; 12; 24; 48 ];
  print_newline ()

(* ---- Ablation H: list-scheduling priority -------------------------------- *)

let ablation_priority () =
  section_header "Ablation H — list-scheduling priority (ALAP vs baselines)";
  Printf.printf "%-26s %10s %10s %10s\n" "DFG" "ALAP" "ASAP" "program";
  let cgc = Hypar_coarsegrain.Cgc.two_by_two 2 in
  let makespans dfg =
    List.map
      (fun priority ->
        (Hypar_coarsegrain.Schedule.schedule ~priority cgc dfg)
          .Hypar_coarsegrain.Schedule.makespan)
      [ `Alap; `Asap; `Program ]
  in
  let report name dfg =
    match makespans dfg with
    | [ a; b; c ] -> Printf.printf "%-26s %10d %10d %10d\n" name a b c
    | _ -> ()
  in
  let jpeg = Jpeg.prepared () in
  report "JPEG DCT row pass" (Hypar_ir.Cdfg.dfg jpeg.Flow.cdfg 5);
  let ofdm = Ofdm.prepared () in
  let butterfly =
    let best = ref 0 in
    List.iter
      (fun i ->
        let d = Hypar_ir.Cdfg.dfg ofdm.Flow.cdfg i in
        let cur = Hypar_ir.Cdfg.dfg ofdm.Flow.cdfg !best in
        if Hypar_ir.Dfg.node_count d > Hypar_ir.Dfg.node_count cur then best := i)
      (Hypar_ir.Cdfg.block_ids ofdm.Flow.cdfg);
    Hypar_ir.Cdfg.dfg ofdm.Flow.cdfg !best
  in
  report "OFDM butterfly" butterfly;
  List.iter
    (fun seed ->
      report
        (Printf.sprintf "random (seed %d)" seed)
        (Hypar_apps.Synth.random_dfg ~seed ~nodes:120 ()))
    [ 4; 5; 6 ];
  print_newline ()

(* ---- Ablation E: kernel-selection strategies ---------------------------- *)

let ablation_strategy () =
  section_header
    "Ablation E — kernel selection: paper greedy vs baselines";
  let strategy_apps =
    List.map (fun (n, p, t, _) -> (n, p, t)) (apps ())
    @ [ ("ADPCM (branchy loop)", Hypar_apps.Adpcm.prepared (),
         Hypar_apps.Adpcm.timing_constraint) ]
  in
  List.iter
    (fun (name, prepared, timing_constraint) ->
      Printf.printf "%s (constraint %d):\n" name timing_constraint;
      Printf.printf "%-28s %7s %16s %6s %8s\n" "strategy" "moves" "final" "met"
        "evals";
      List.iter
        (fun (o : Hypar_core.Baselines.outcome) ->
          Printf.printf "%-28s %7d %16d %6b %8d\n" o.name
            (List.length o.moved) o.t_total o.met o.evaluations)
        (Hypar_core.Baselines.compare_all (platform ()) ~timing_constraint
           prepared.Flow.cdfg prepared.Flow.profile);
      print_newline ())
    strategy_apps

(* ---- Ablation F: temporal-partitioning algorithm ------------------------ *)

let ablation_temporal () =
  section_header
    "Ablation F — Figure-3 first-fit vs first-fit-with-backfill";
  Printf.printf "%-22s %8s %12s %12s\n" "DFG" "A_FPGA" "paper(Fig.3)"
    "backfill";
  let fpga a = Hypar_finegrain.Fpga.make ~area:a () in
  let report name dfg area =
    let size = Hypar_finegrain.Fpga.op_area (fpga area) in
    let paper = Hypar_finegrain.Temporal.partition ~area ~size dfg in
    let bf = Hypar_finegrain.Temporal.partition_best_fit ~area ~size dfg in
    Printf.printf "%-22s %8d %12d %12d\n" name area
      (Hypar_finegrain.Temporal.count paper)
      (Hypar_finegrain.Temporal.count bf)
  in
  let jpeg = Jpeg.prepared () in
  let dct = Hypar_ir.Cdfg.dfg jpeg.Flow.cdfg 5 in
  List.iter (fun a -> report "JPEG DCT row pass" dct a) [ 500; 1000; 1500; 5000 ];
  List.iter
    (fun seed ->
      let dfg = Hypar_apps.Synth.random_dfg ~seed ~nodes:150 () in
      report (Printf.sprintf "random (seed %d)" seed) dfg 1500)
    [ 1; 2; 3 ];
  print_newline ()

(* ---- Ablation G: reconfiguration-time model ------------------------------ *)

(* The full flow under three reconfiguration-time models: the calibrated
   flat constant, and cycles derived from configuration bit-stream length
   (full-device — the paper's stated model — and per-column partial).
   The bit-stream oracle in test/bitstream.ml generates the streams. *)
let ablation_reconfig () =
  section_header "Ablation G — reconfiguration time from bit-stream length";
  let models =
    [
      ("flat (calibrated 24)", Hypar_finegrain.Fpga.Flat);
      ( "bitstream, full device",
        Hypar_finegrain.Fpga.Frame_full Hypar_finegrain.Fpga.default_frame_params );
      ( "bitstream, per column",
        Hypar_finegrain.Fpga.Frame_partial Hypar_finegrain.Fpga.default_frame_params );
    ]
  in
  List.iter
    (fun (name, prepared, timing_constraint, _) ->
      Printf.printf "%s (A=1500, two 2x2 CGCs, constraint %d):\n" name
        timing_constraint;
      Printf.printf "%-26s %16s %16s %10s %6s\n" "reconfiguration model"
        "initial" "final" "reduction" "met";
      List.iter
        (fun (label, reconfig_model) ->
          let pl =
            Platform.make
              ~fpga:(Hypar_finegrain.Fpga.make ~area:1500 ~reconfig_model ())
              ~cgc:(Hypar_coarsegrain.Cgc.two_by_two 2)
              ()
          in
          let r = Flow.partition pl ~timing_constraint prepared in
          Printf.printf "%-26s %16d %16d %9.1f%% %6b\n" label
            r.Engine.initial.Engine.t_total r.Engine.final.Engine.t_total
            (Engine.reduction_percent r) (Engine.met r))
        models;
      print_newline ())
    (apps ())

(* ---- Extension 1: frame pipelining -------------------------------------- *)

let extension_pipeline () =
  section_header "Extension 1 — pipelined fine/coarse execution (paper §5)";
  List.iter
    (fun (name, prepared, timing_constraint, frames) ->
      Printf.printf "%s (%d frames):\n" name frames;
      List.iter
        (fun pl ->
          let r = Flow.partition pl ~timing_constraint prepared in
          let p = Hypar_core.Pipeline.analyse ~frames r in
          Format.printf "  %-28s %a@." pl.Platform.name Hypar_core.Pipeline.pp p)
        (Platform.paper_configs ());
      print_newline ())
    (apps ())

(* ---- Extension 3: CGC loop pipelining (modulo scheduling) ---------------- *)

let extension_modulo () =
  section_header
    "Extension 3 — CGC loop pipelining (modulo scheduling of moved kernels)";
  List.iter
    (fun (name, prepared, timing_constraint, _) ->
      Printf.printf "%s (A=1500, two 2x2 CGCs):\n" name;
      Printf.printf "%-16s %16s %16s %16s %10s\n" "pricing" "cycles-in-CGC"
        "t_coarse" "final" "reduction";
      List.iter
        (fun (label, pipelined) ->
          let r =
            Engine.run ~cgc_pipelining:pipelined (platform ()) ~timing_constraint
              prepared.Flow.cdfg prepared.Flow.profile
          in
          Printf.printf "%-16s %16d %16d %16d %9.1f%%\n" label
            r.Engine.final.Engine.t_coarse_cgc r.Engine.final.Engine.t_coarse
            r.Engine.final.Engine.t_total
            (Engine.reduction_percent r))
        [ ("Eq. 3 (flat)", false); ("pipelined (II)", true) ];
      print_newline ())
    (apps ())

(* ---- Extension 2: energy-constrained partitioning ----------------------- *)

let extension_energy () =
  section_header "Extension 2 — energy-constrained partitioning (paper §5)";
  List.iter
    (fun (name, prepared, _, _) ->
      let pl = platform () in
      let base =
        Hypar_core.Energy.partition Hypar_core.Energy.default pl
          ~energy_budget:0 prepared.Flow.cdfg prepared.Flow.profile
      in
      let initial = base.Hypar_core.Energy.initial_energy in
      Printf.printf "%s (all-FPGA energy %d):\n" name initial;
      Printf.printf "%12s %16s %10s %7s %6s\n" "budget" "final" "saved" "moved"
        "met";
      List.iter
        (fun percent ->
          let budget = initial * percent / 100 in
          let r =
            Hypar_core.Energy.partition Hypar_core.Energy.default pl
              ~energy_budget:budget prepared.Flow.cdfg prepared.Flow.profile
          in
          Printf.printf "%11d%% %16d %9.1f%% %7d %6b\n" percent
            r.Hypar_core.Energy.final_energy
            (Hypar_core.Energy.reduction_percent r)
            (List.length r.Hypar_core.Energy.moved)
            r.Hypar_core.Energy.feasible)
        [ 80; 60; 40; 20; 10 ];
      print_newline ())
    (apps ())

(* ---- Timing gates --------------------------------------------------------- *)

(* The sections below time the tool rather than reproduce the paper; each
   exits 1 when it misses its bound.  [best_of ~reps f] runs [f] [reps]
   times and returns the wall-clock seconds of the fastest run with that
   run's result. *)
let best_of ~reps f =
  let timed () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let best = ref (timed ()) in
  for _ = 2 to reps do
    let ((dt, _) as run) = timed () in
    if dt < fst !best then best := run
  done;
  !best

let write_bench section write =
  let file = Printf.sprintf "BENCH_%s.json" section in
  Out_channel.with_open_text file write;
  Printf.printf "wrote %s\n" file

(* The four overhead gates (obs, resilience, serve, soak) share one shape:
   price what a layer adds to one run of a real workload, time that
   workload ([denominator]: one warm-up, then best of 7), and exit 1 when
   the ratio exceeds 2%.  [overhead_gate] prints both and returns the
   ratio.  The obs, resilience and serve gates price their layer in a
   tight loop, because differencing two full runs drowns in scheduler
   noise. *)
let denominator run =
  run ();
  fst (best_of ~reps:7 run)

let overhead_gate ~layer ~per_item (workload, seconds) =
  let overhead = per_item /. seconds in
  Printf.printf "%-24s: %10.3f ms (best of 7)\n" workload (seconds *. 1e3);
  Printf.printf "%-24s: %10.2f ns, %.4f%% of it (budget: 2%%)\n" layer
    (per_item *. 1e9) (100. *. overhead);
  if overhead > 0.02 then begin
    Printf.printf "FAIL: %s exceeds the 2%% overhead budget\n" layer;
    exit 1
  end;
  overhead

(* ---- Observability overhead gate ----------------------------------------- *)

(* The disabled-path guarantee is part of the Hypar_obs contract: with
   tracing off, every probe is a single atomic load.  Count the probes a
   traced OFDM flow fires and price the disabled probe; probes/run x
   ns/probe is the disabled-path cost of one untraced run. *)
let obs_bench () =
  section_header "Obs — tracing overhead (enabled vs disabled) on OFDM";
  let prepared = Ofdm.prepared () in
  let pl = platform () in
  let flow () =
    ignore (Flow.partition pl ~timing_constraint:Ofdm.timing_constraint prepared)
  in
  flow ();
  Hypar_obs.Sink.enable ();
  let t_on, events_per_run =
    best_of ~reps:7 (fun () ->
        Hypar_obs.Sink.clear ();
        flow ();
        List.length (Hypar_obs.Sink.events ()))
  in
  Hypar_obs.Sink.disable ();
  Hypar_obs.Sink.clear ();
  let calls = 5_000_000 in
  let t_probe, () =
    best_of ~reps:5 (fun () ->
        for _ = 1 to calls do
          Hypar_obs.Counter.incr "bench.probe"
        done)
  in
  let per_probe = t_probe /. float_of_int calls in
  Printf.printf "%-24s: %10.3f ms, %d events/run (best of 7)\n"
    "flow, tracing on" (t_on *. 1e3) events_per_run;
  Printf.printf "%-24s: %10.2f ns/call\n" "disabled probe" (per_probe *. 1e9);
  ignore
    (overhead_gate ~layer:"disabled tracing"
       ~per_item:(float_of_int events_per_run *. per_probe)
       ("flow, tracing off", denominator flow));
  print_newline ()

(* ---- Resilience overhead gate -------------------------------------------- *)

(* The hardened explore driver wraps every point evaluation in
   [Retry.run] and consults the fault spec; with no faults and no
   retries configured that wrapper is the only cost the resilience layer
   adds to a fault-free sweep.  Price it against one real point
   evaluation. *)
let resilience_bench () =
  section_header "Resilience — fault-free hardening overhead on explore";
  let module Retry = Hypar_resilience.Retry in
  let prepared = Ofdm.prepared () in
  let point =
    { Hypar_explore.Space.area = 1500; cgcs = 2; rows = 2; cols = 2;
      clock_ratio = 3; timing = Ofdm.timing_constraint }
  in
  let calls = 2_000_000 in
  let payload _attempt = Ok () in
  let t_bare, () =
    best_of ~reps:5 (fun () ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (payload 1))
        done)
  in
  let t_wrapped, () =
    best_of ~reps:5 (fun () ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (Retry.run ~retries:0 payload))
        done)
  in
  let eval () = ignore (Hypar_explore.Eval.evaluate prepared point) in
  ignore
    (overhead_gate ~layer:"retry wrapper"
       ~per_item:(Float.max 0. ((t_wrapped -. t_bare) /. float_of_int calls))
       ("OFDM point evaluation", denominator eval));
  print_newline ()

(* ---- Serve and soak: the per-request gates -------------------------------- *)

module Worker = Hypar_server.Worker
module Protocol = Hypar_server.Protocol

(* the worker both per-request gates run: no faults, deadline or fuel, and
   the sink disabled, as the rest of the pipeline is held to *)
let worker_config () =
  {
    Worker.faults = None;
    backend = None;
    default_deadline_ms = None;
    default_fuel = None;
    drain = Hypar_server.Drain.create ~drain_timeout_ms:1000;
    queue_depth = (fun () -> 0);
    on_poll = None;
  }

let parse_request line =
  match Protocol.parse_request line with Ok req -> req | Error e -> failwith e

let execute config req =
  match Worker.execute config req with
  | Protocol.Done _ -> ()
  | resp -> failwith (Protocol.render resp)

(* The unit both per-request gates charge against: one OFDM partition
   request through [Worker.execute].  Its source file is removed however
   the requests end. *)
let partition_request config =
  let src_file = Filename.temp_file "hypar_bench" ".mc" in
  Fun.protect ~finally:(fun () -> Sys.remove src_file) @@ fun () ->
  Out_channel.with_open_text src_file (fun oc -> output_string oc Ofdm.source);
  let req =
    parse_request
      (Printf.sprintf {|{"id":1,"verb":"partition","file":"%s","timing":%d}|}
         src_file Ofdm.timing_constraint)
  in
  ("OFDM partition request", denominator (fun () -> execute config req))

(* Every serve request pays the envelope machinery on top of the work
   itself: parse, deadline construction, the dispatch match, the
   isolation boundary and the response render.  The cheapest verb,
   health, does no file work, so what it costs IS the wrapper. *)
let serve_bench () =
  section_header "Serve — per-request wrapper overhead (sink disabled)";
  let config = worker_config () in
  let health = parse_request {|{"id":2,"verb":"health"}|} in
  let calls = 100_000 in
  let t_wrap, () =
    best_of ~reps:5 (fun () ->
        for _ = 1 to calls do
          execute config health
        done)
  in
  ignore
    (overhead_gate ~layer:"health request wrapper"
       ~per_item:(t_wrap /. float_of_int calls)
       (partition_request config));
  print_newline ()

(* The self-healing pool rides along on every request even when nothing
   goes wrong: heartbeat stores, the settle CAS, the monitor domain's
   2 ms tick.  Stream the same chaos-free request list through a
   one-worker supervised session and through the inline session (one
   job, no supervisor) and attribute the wall-time delta per request.
   The sorted response envelopes must also be identical: chaos-free
   supervision answers exactly as the inline path does. *)
let soak_bench () =
  section_header "Soak — chaos-free supervision overhead";
  let module Server = Hypar_server.Server in
  let n = 1000 in
  let lines =
    List.init n (fun i ->
        Printf.sprintf {|{"id":%d,"verb":"health"}|} (i + 1))
  in
  let write_all fd s =
    let rec go off len =
      if len > 0 then
        match Unix.write_substring fd s off len with
        | k -> go (off + k) (len - k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
    in
    go 0 (String.length s)
  in
  let read_all fd =
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let run_session supervisor () =
    let config =
      {
        Server.jobs = 1;
        max_queue = n;
        drain_timeout_ms = 10_000;
        retry_after_ms = 100;
        faults = None;
        backend = None;
        default_deadline_ms = None;
        default_fuel = None;
        supervisor;
      }
    in
    let req_r, req_w = Unix.pipe ~cloexec:true () in
    let resp_r, resp_w = Unix.pipe ~cloexec:true () in
    let feeder =
      Domain.spawn (fun () ->
          List.iter (fun l -> write_all req_w (l ^ "\n")) lines;
          Unix.close req_w)
    in
    let collector = Domain.spawn (fun () -> read_all resp_r) in
    let drain = Hypar_server.Drain.create ~drain_timeout_ms:10_000 in
    Server.run_session config drain req_r resp_w;
    Unix.close resp_w;
    Domain.join feeder;
    let out = Domain.join collector in
    Unix.close req_r;
    Unix.close resp_r;
    out
  in
  ignore (run_session None ());
  let t_inline, out_inline = best_of ~reps:5 (run_session None) in
  let t_sup, out_sup =
    best_of ~reps:5
      (run_session (Some Hypar_server.Supervisor.default_options))
  in
  (* health payloads carry uptime and instantaneous queue depth, which
     differ between any two runs — compare the envelope signatures
     (id/status/verb), which must agree exactly *)
  let signature line =
    let key = "\"payload\"" in
    let n = String.length line and k = String.length key in
    let rec find i =
      if i + k > n then line
      else if String.sub line i k = key then String.sub line 0 i
      else find (i + 1)
    in
    find 0
  in
  let sorted out =
    String.split_on_char '\n' out |> List.map signature |> List.sort compare
  in
  let identical = sorted out_inline = sorted out_sup in
  let per_req = Float.max 0. ((t_sup -. t_inline) /. float_of_int n) in
  Printf.printf "%-24s: %10.3f ms (%d health requests, best of 5)\n"
    "inline session" (t_inline *. 1e3) n;
  Printf.printf "%-24s: %10.3f ms (same stream, chaos off)\n"
    "supervised session" (t_sup *. 1e3);
  Printf.printf "%-24s: %s\n" "envelopes identical"
    (if identical then "yes" else "NO");
  let ((_, t_req) as request) = partition_request (worker_config ()) in
  let overhead = overhead_gate ~layer:"supervision tax" ~per_item:per_req request in
  if not identical then begin
    Printf.printf
      "FAIL: chaos-free supervised responses differ from the inline session\n";
    exit 1
  end;
  write_bench "soak" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"section\": \"soak\",\n\
        \  \"requests\": %d,\n\
        \  \"inline_seconds\": %.6f,\n\
        \  \"supervised_seconds\": %.6f,\n\
        \  \"supervision_ns_per_request\": %.2f,\n\
        \  \"partition_request_seconds\": %.6f,\n\
        \  \"overhead_fraction\": %.6f,\n\
        \  \"budget_fraction\": 0.02,\n\
        \  \"envelopes_identical\": %b\n\
         }\n"
        n t_inline t_sup (per_req *. 1e9) t_req overhead identical);
  print_newline ()

(* ---- interp: compiled backend vs tree oracle + engine delta updates ------ *)

(* Two speedup gates for the compiled execution backend.  First the
   profiling interpreter itself: each application runs under the
   tree-walking oracle and under Exec.run (flatten + execute, so the
   compile cost is charged to every run) on the same inputs, once bare
   and once with a no-op [poll], the configuration [hypar serve] runs;
   JPEG — the largest workload — must come out at least 6x faster bare
   or the bench exits 1.  Then the engine: pricing every prefix of a
   partitioning trajectory by full recharacterisation (what Engine.run
   used to do) versus replaying the same moves through Engine.Inc's delta
   updates. *)
let interp_bench () =
  section_header "Interp — compiled backend vs tree-walking oracle";
  let module Interp = Hypar_profiling.Interp in
  let module Exec = Hypar_profiling.Exec in
  let apps =
    [
      ("OFDM", Ofdm.source, Ofdm.inputs ());
      ("JPEG", Jpeg.source, Jpeg.inputs ());
      ("Sobel", Hypar_apps.Sobel.source, Hypar_apps.Sobel.inputs ());
      ("ADPCM", Hypar_apps.Adpcm.source, Hypar_apps.Adpcm.inputs ());
    ]
  in
  Printf.printf "%-6s | %12s | %12s | %12s | %8s | %6s\n" "app" "tree ms"
    "compiled ms" "+poll ms" "speedup" "equal";
  let rows =
    List.map
      (fun (name, src, inputs) ->
        let cdfg = Hypar_minic.Driver.compile_exn ~name src in
        let t_tree, r_tree = best_of ~reps:3 (fun () -> Interp.run ~inputs cdfg) in
        let t_comp, r_comp = best_of ~reps:3 (fun () -> Exec.run ~inputs cdfg) in
        let t_poll, r_poll =
          best_of ~reps:3 (fun () -> Exec.run ~poll:ignore ~inputs cdfg)
        in
        let equal = r_tree = r_comp && r_tree = r_poll in
        let speedup = t_tree /. t_comp in
        Printf.printf "%-6s | %12.3f | %12.3f | %12.3f | %7.2fx | %6s\n" name
          (t_tree *. 1e3) (t_comp *. 1e3) (t_poll *. 1e3) speedup
          (if equal then "yes" else "NO");
        (name, t_tree, t_comp, t_poll, speedup, equal))
      apps
  in
  let failed = ref false in
  List.iter
    (fun (name, _, _, _, speedup, equal) ->
      if not equal then begin
        Printf.printf "FAIL: %s results differ across backends\n" name;
        failed := true
      end;
      if name = "JPEG" && speedup < 6.0 then begin
        Printf.printf "FAIL: JPEG compiled speedup %.2fx below the 6x budget\n"
          speedup;
        failed := true
      end)
    rows;
  (* engine: full recharacterisation of every trajectory prefix vs the
     same trajectory replayed through the incremental state *)
  let prepared = Ofdm.prepared () in
  let pl = platform () in
  let r =
    Engine.run pl ~timing_constraint:1 prepared.Flow.cdfg prepared.Flow.profile
  in
  let prefixes =
    List.mapi
      (fun i _ -> List.filteri (fun j _ -> j <= i) r.Engine.moved)
      r.Engine.moved
  in
  let batch = 50 in
  let t_full, () =
    best_of ~reps:5 (fun () ->
        for _ = 1 to batch do
          let full =
            Engine.evaluate pl prepared.Flow.cdfg prepared.Flow.profile
          in
          ignore (full []);
          List.iter (fun prefix -> ignore (full prefix)) prefixes
        done)
  in
  let inc = Engine.Inc.create pl prepared.Flow.cdfg prepared.Flow.profile in
  let t_delta, () =
    best_of ~reps:5 (fun () ->
        for _ = 1 to batch do
          Engine.Inc.reset inc;
          ignore (Engine.Inc.times inc);
          List.iter
            (fun b ->
              Engine.Inc.move inc b;
              ignore (Engine.Inc.times inc))
            r.Engine.moved
        done)
  in
  let engine_speedup = t_full /. t_delta in
  Printf.printf
    "engine (OFDM, %d moves): full %.3f ms, delta %.3f ms -> %.2fx\n"
    (List.length r.Engine.moved)
    (t_full /. float_of_int batch *. 1e3)
    (t_delta /. float_of_int batch *. 1e3)
    engine_speedup;
  if !failed then exit 1;
  write_bench "interp" (fun oc ->
      Printf.fprintf oc "{\n  \"section\": \"interp\",\n  \"apps\": [\n";
      List.iteri
        (fun i (name, t_tree, t_comp, t_poll, speedup, equal) ->
          Printf.fprintf oc
            "    {\"app\": %S, \"tree_ms\": %.3f, \"compiled_ms\": %.3f, \
             \"compiled_poll_ms\": %.3f, \"speedup\": %.2f, \"identical\": \
             %b}%s\n"
            name (t_tree *. 1e3) (t_comp *. 1e3) (t_poll *. 1e3) speedup equal
            (if i < List.length rows - 1 then "," else ""))
        rows;
      Printf.fprintf oc
        "  ],\n\
        \  \"engine\": {\"moves\": %d, \"full_ms\": %.3f, \"delta_ms\": %.3f, \
         \"speedup\": %.2f}\n\
         }\n"
        (List.length r.Engine.moved)
        (t_full /. float_of_int batch *. 1e3)
        (t_delta /. float_of_int batch *. 1e3)
        engine_speedup);
  print_newline ()

(* ---- fuzz: generator + oracle throughput, determinism gate --------------- *)

(* The fuzzing subsystem has to stay fast enough that CI's bounded smoke
   campaign is cheap and local campaigns cover thousands of programs per
   minute: gate the generator alone (AST + pretty-print) and the full
   per-program judgement (generate, compile 3 ways, run 6 interpreter
   configurations, compare).  Also a hard determinism gate — the jobs=1
   and jobs=2 campaign reports must be byte-identical, since every cram
   test and CI replay relies on that. *)
let fuzz_bench () =
  section_header "Fuzz — generator and oracle throughput";
  let module Runner = Hypar_fuzzgen.Runner in
  let n_gen = 2_000 and n_oracle = 150 in
  let t_gen, bytes =
    best_of ~reps:1 (fun () ->
        let bytes = ref 0 in
        for seed = 1 to n_gen do
          bytes := !bytes + String.length (Hypar_fuzzgen.Gen.source seed)
        done;
        !bytes)
  in
  let gen_rate = float_of_int n_gen /. t_gen in
  Printf.printf "generator: %d programs (%.1f KiB) in %.3f s -> %.0f prog/s\n"
    n_gen
    (float_of_int bytes /. 1024.)
    t_gen gen_rate;
  let campaign jobs =
    Runner.run { Runner.default with Runner.seed = 21; count = n_oracle; jobs }
  in
  let t_oracle, r1 = best_of ~reps:1 (fun () -> campaign 1) in
  let oracle_rate = float_of_int n_oracle /. t_oracle in
  Printf.printf
    "oracle matrix: %d programs in %.3f s -> %.1f prog/s (%d passes)\n"
    n_oracle t_oracle oracle_rate r1.Runner.passes;
  let r2 = campaign 2 in
  let deterministic =
    Runner.to_text r1 = Runner.to_text r2
    && Runner.to_json r1 = Runner.to_json r2
  in
  Printf.printf "jobs=1 vs jobs=2 reports identical: %s\n"
    (if deterministic then "yes" else "NO");
  let failed = ref false in
  if not deterministic then begin
    Printf.printf "FAIL: campaign report depends on --jobs\n";
    failed := true
  end;
  if r1.Runner.passes <> n_oracle then begin
    Printf.printf "FAIL: %d safe-grammar programs did not pass the oracle\n"
      (n_oracle - r1.Runner.passes);
    failed := true
  end;
  (* soft floors, far below observed rates, to catch order-of-magnitude
     regressions without flaking on slow CI machines *)
  if gen_rate < 200. then begin
    Printf.printf "FAIL: generator below 200 prog/s\n";
    failed := true
  end;
  if oracle_rate < 1. then begin
    Printf.printf "FAIL: oracle matrix below 1 prog/s\n";
    failed := true
  end;
  if !failed then exit 1;
  write_bench "fuzz" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"section\": \"fuzz\",\n\
        \  \"generator\": {\"programs\": %d, \"seconds\": %.3f, \"rate_per_s\": \
         %.0f},\n\
        \  \"oracle\": {\"programs\": %d, \"seconds\": %.3f, \"rate_per_s\": \
         %.1f, \"passes\": %d},\n\
        \  \"deterministic_across_jobs\": %b\n\
         }\n"
        n_gen t_gen gen_rate n_oracle t_oracle oracle_rate r1.Runner.passes
        deterministic);
  print_newline ()

(* ---- driver -------------------------------------------------------------- *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("ablation:afpga", ablation_afpga);
    ("ablation:cgc", ablation_cgc);
    ("ablation:clock-ratio", ablation_clock_ratio);
    ("ablation:comm", ablation_comm);
    ("ablation:strategy", ablation_strategy);
    ("ablation:temporal", ablation_temporal);
    ("ablation:reconfig", ablation_reconfig);
    ("ablation:priority", ablation_priority);
    ("ablation:scaling", ablation_scaling);
    ("obs", obs_bench);
    ("resilience", resilience_bench);
    ("serve", serve_bench);
    ("extension:pipeline", extension_pipeline);
    ("extension:energy", extension_energy);
    ("extension:modulo", extension_modulo);
    ("interp", interp_bench);
    ("fuzz", fuzz_bench);
    ("soak", soak_bench);
  ]

(* what a bare run reproduces: the timing gates run only when named *)
let is_paper name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "table"; "ablation:"; "extension:" ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.filter is_paper (List.map fst sections)
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat ", " (List.map fst sections));
        exit 2)
    requested
