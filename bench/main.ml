(* Benchmark harness: regenerates every table of the paper's evaluation
   section (Tables 1-3), the shape claims of §4, ablations over the design
   axes and the extensions.

   Run everything:        dune exec bench/main.exe
   Run one section:       dune exec bench/main.exe -- table2 ablation:afpga

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

(* best wall-clock seconds over [reps] runs of [f] *)
let time_best ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

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

(* ---- Explore: parallel DSE throughput + cache hit-rate ------------------- *)

(* Points/sec of the exploration engine, sequential vs multi-domain, on a
   duplicate-free grid; then the memo cache on a grid that repeats one
   configuration.  Identical summaries across jobs levels are asserted —
   the determinism the unit suite also pins down. *)
let explore_bench () =
  section_header "Explore — DSE throughput (jobs) and memo-cache hit-rate";
  let module Space = Hypar_explore.Space in
  let module Driver = Hypar_explore.Driver in
  let module Render = Hypar_explore.Render in
  let n = 12 in
  let inputs =
    [
      ("a", Array.init (n * n) (fun i -> (i * 7) mod 23));
      ("b", Array.init (n * n) (fun i -> (i * 5) mod 19));
    ]
  in
  let prepared =
    Flow.prepare ~name:"matmul12" ~inputs (Hypar_apps.Synth.matmul_source ~n)
  in
  let budget =
    match
      Hypar_explore.Eval.evaluate prepared
        { Space.area = 1500; cgcs = 2; rows = 2; cols = 2; clock_ratio = 3;
          timing = max_int }
    with
    | Ok m -> m.Hypar_explore.Eval.initial.Engine.t_total / 2
    | Error msg -> failwith msg
  in
  let space =
    Space.make
      ~areas:[ 400; 800; 1200; 1600; 2000; 2400 ]
      ~cgcs:[ 1; 2; 3 ] ~timings:[ budget ] ()
  in
  Printf.printf "grid: %d points (no duplicates), constraint %d\n"
    (Space.size space) budget;
  Printf.printf "%6s %10s %12s %12s\n" "jobs" "points" "seconds" "points/s";
  let reference = ref None in
  List.iter
    (fun jobs ->
      let t0 = Unix.gettimeofday () in
      match Driver.run ~jobs prepared space with
      | Error msg -> Printf.printf "  jobs=%d failed: %s\n" jobs msg
      | Ok summary ->
        let dt = Unix.gettimeofday () -. t0 in
        let pts = Array.length summary.Driver.results in
        Printf.printf "%6d %10d %12.3f %12.1f\n" jobs pts dt
          (float_of_int pts /. dt);
        let rendered = Render.json summary in
        (match !reference with
        | None -> reference := Some rendered
        | Some r ->
          if r <> rendered then
            Printf.printf "  WARNING: jobs=%d diverged from jobs=1\n" jobs))
    [ 1; 2; 4 ];
  let dup =
    Space.make ~areas:[ 1500; 1500; 1500; 1500 ] ~cgcs:[ 2; 2 ]
      ~clock_ratios:[ 3; 3 ] ~timings:[ budget ] ()
  in
  (match Driver.run prepared dup with
  | Error msg -> Printf.printf "duplicate grid failed: %s\n" msg
  | Ok summary ->
    let stats = summary.Driver.cache in
    let total = stats.Hypar_explore.Cache.hits + stats.Hypar_explore.Cache.misses in
    Printf.printf
      "duplicate grid: %d points, %d unique -> %d hits / %d misses (%.0f%% \
       hit-rate)\n"
      total stats.Hypar_explore.Cache.misses stats.Hypar_explore.Cache.hits
      stats.Hypar_explore.Cache.misses
      (100. *. float_of_int stats.Hypar_explore.Cache.hits /. float_of_int total));
  print_newline ()

(* ---- Observability overhead gate ----------------------------------------- *)

(* The disabled-path guarantee is part of the Hypar_obs contract: with
   tracing off, every probe is a single atomic load.  Measure the full
   OFDM flow with the sink off and on, count the probes a traced run
   fires, and price the disabled probe directly in a tight loop; the
   estimated disabled-path overhead (probes/run x ns/probe, relative to
   the untraced run) must stay under 2% or the bench exits 1.  Pricing
   the probe directly instead of differencing two full-flow timings keeps
   the gate robust to scheduler noise. *)
let obs_bench () =
  section_header "Obs — tracing overhead (enabled vs disabled) on OFDM";
  let prepared = Ofdm.prepared () in
  let pl = platform () in
  let flow () =
    ignore (Flow.partition pl ~timing_constraint:Ofdm.timing_constraint prepared)
  in
  flow ();
  (* warmed up *)
  let t_off = time_best ~reps:7 flow in
  Hypar_obs.Sink.enable ();
  let t_on =
    time_best ~reps:7 (fun () ->
        Hypar_obs.Sink.clear ();
        flow ())
  in
  Hypar_obs.Sink.clear ();
  flow ();
  let events_per_run = List.length (Hypar_obs.Sink.events ()) in
  Hypar_obs.Sink.disable ();
  Hypar_obs.Sink.clear ();
  let calls = 5_000_000 in
  let t_probe =
    time_best ~reps:5 (fun () ->
        for _ = 1 to calls do
          Hypar_obs.Counter.incr "bench.probe"
        done)
  in
  let per_probe = t_probe /. float_of_int calls in
  let disabled_overhead = float_of_int events_per_run *. per_probe /. t_off in
  Printf.printf "flow, tracing off : %10.3f ms/run (best of 7)\n" (t_off *. 1e3);
  Printf.printf "flow, tracing on  : %10.3f ms/run, %d events/run (x%.2f)\n"
    (t_on *. 1e3) events_per_run (t_on /. t_off);
  Printf.printf "disabled probe    : %10.2f ns/call\n" (per_probe *. 1e9);
  Printf.printf
    "disabled-path overhead: %.4f%% of the untraced run (budget: 2%%)\n"
    (100. *. disabled_overhead);
  if disabled_overhead > 0.02 then begin
    Printf.printf "FAIL: disabled tracing path exceeds the 2%% overhead budget\n";
    exit 1
  end;
  print_newline ()

(* ---- Resilience overhead gate -------------------------------------------- *)

(* The hardened explore driver wraps every point evaluation in
   [Retry.run] and consults the fault spec; with no faults and no
   retries configured that wrapper is the only cost the resilience layer
   adds to a fault-free sweep.  Price the wrapper directly in a tight
   loop (same technique as the obs gate — differencing two full sweeps
   drowns in scheduler noise), relate it to the time of one real point
   evaluation, and fail the bench if the fault-free overhead exceeds
   2%. *)
let resilience_bench () =
  section_header "Resilience — fault-free hardening overhead on explore";
  let module Eval = Hypar_explore.Eval in
  let module Space = Hypar_explore.Space in
  let module Retry = Hypar_resilience.Retry in
  let prepared = Ofdm.prepared () in
  let point =
    { Space.area = 1500; cgcs = 2; rows = 2; cols = 2; clock_ratio = 3;
      timing = Ofdm.timing_constraint }
  in
  let eval () = ignore (Eval.evaluate prepared point) in
  eval ();
  (* warmed up *)
  let t_eval = time_best ~reps:7 eval in
  let calls = 2_000_000 in
  let payload _attempt = Ok () in
  let bare () =
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (payload 1))
    done
  in
  let wrapped () =
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (Retry.run ~retries:0 payload))
    done
  in
  let t_bare = time_best ~reps:5 bare in
  let t_wrapped = time_best ~reps:5 wrapped in
  let per_call =
    Float.max 0. ((t_wrapped -. t_bare) /. float_of_int calls)
  in
  let overhead = per_call /. t_eval in
  Printf.printf "point evaluation   : %10.3f ms (OFDM, best of 7)\n"
    (t_eval *. 1e3);
  Printf.printf "retry wrapper      : %10.2f ns/point\n" (per_call *. 1e9);
  Printf.printf
    "fault-free overhead: %.6f%% of one point evaluation (budget: 2%%)\n"
    (100. *. overhead);
  if overhead > 0.02 then begin
    Printf.printf "FAIL: resilience hardening exceeds the 2%% overhead budget\n";
    exit 1
  end;
  print_newline ()

(* ---- Serve wrapper overhead gate ----------------------------------------- *)

(* Every serve request pays the envelope machinery on top of the work
   itself: parse, deadline construction, the dispatch match, the
   isolation boundary and the response render.  Price that wrapper with
   the cheapest verb (health — no file work, so what remains IS the
   wrapper), relate it to one real partition request through the same
   path, and gate it at the same 2% budget as the obs and resilience
   layers.  The sink stays disabled throughout, matching the
   disabled-observability contract the rest of the pipeline is held to. *)
let serve_bench () =
  section_header "Serve — per-request wrapper overhead (sink disabled)";
  let module Worker = Hypar_server.Worker in
  let module Protocol = Hypar_server.Protocol in
  let src_file = Filename.temp_file "hypar_bench" ".mc" in
  let oc = open_out src_file in
  output_string oc Ofdm.source;
  close_out oc;
  let config =
    {
      Worker.faults = None;
      backend = None;
      default_deadline_ms = None;
      default_fuel = None;
      drain = Hypar_server.Drain.create ~drain_timeout_ms:1000;
      queue_depth = (fun () -> 0);
      on_poll = None;
    }
  in
  let request line =
    match Protocol.parse_request line with
    | Ok req -> req
    | Error e -> failwith e
  in
  let partition_req =
    request
      (Printf.sprintf {|{"id":1,"verb":"partition","file":"%s","timing":%d}|}
         src_file Ofdm.timing_constraint)
  in
  let health_req = request {|{"id":2,"verb":"health"}|} in
  let run req () =
    match Worker.execute config req with
    | Protocol.Done _ -> ()
    | resp -> failwith (Protocol.render resp)
  in
  run partition_req ();
  (* warmed up *)
  let t_req = time_best ~reps:7 (run partition_req) in
  let calls = 100_000 in
  let t_wrap =
    time_best ~reps:5 (fun () ->
        for _ = 1 to calls do
          run health_req ()
        done)
  in
  Sys.remove src_file;
  let per_wrap = t_wrap /. float_of_int calls in
  let overhead = per_wrap /. t_req in
  Printf.printf "partition request  : %10.3f ms/request (OFDM, best of 7)\n"
    (t_req *. 1e3);
  Printf.printf "request wrapper    : %10.2f ns/request (health, %d calls)\n"
    (per_wrap *. 1e9) calls;
  Printf.printf
    "wrapper overhead   : %.4f%% of one partition request (budget: 2%%)\n"
    (100. *. overhead);
  if overhead > 0.02 then begin
    Printf.printf "FAIL: serve wrapper exceeds the 2%% overhead budget\n";
    exit 1
  end;
  print_newline ()

(* ---- Soak: supervision overhead gate ------------------------------------- *)

(* The self-healing pool rides along on every request even when nothing
   goes wrong: heartbeat stores, the settle CAS, the monitor domain's
   2 ms tick.  Price that tax by streaming the same chaos-free request
   list through a one-worker supervised session and through the inline
   session (one job, no supervisor), attributing the wall-time delta per
   request, and relating it to one real partition request — the same
   shape as the serve wrapper gate, and the same 2% budget.  The sorted
   response envelopes must also be identical: chaos-free supervision
   answers exactly as the inline path does. *)
let soak_bench () =
  section_header "Soak — chaos-free supervision overhead";
  let module Worker = Hypar_server.Worker in
  let module Protocol = Hypar_server.Protocol in
  let module Server = Hypar_server.Server in
  let module Supervisor = Hypar_server.Supervisor in
  let src_file = Filename.temp_file "hypar_bench" ".mc" in
  let oc = open_out src_file in
  output_string oc Ofdm.source;
  close_out oc;
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
  let run_session ~supervisor =
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
    let t0 = Unix.gettimeofday () in
    Server.run_session config drain req_r resp_w;
    let dt = Unix.gettimeofday () -. t0 in
    Unix.close resp_w;
    Domain.join feeder;
    let out = Domain.join collector in
    Unix.close req_r;
    Unix.close resp_r;
    (dt, out)
  in
  let best f =
    let t = ref infinity and out = ref "" in
    for _ = 1 to 5 do
      let dt, o = f () in
      if dt < !t then begin
        t := dt;
        out := o
      end
    done;
    (!t, !out)
  in
  ignore (run_session ~supervisor:None);
  (* warmed up *)
  let t_inline, out_inline = best (fun () -> run_session ~supervisor:None) in
  let t_sup, out_sup =
    best (fun () -> run_session ~supervisor:(Some Supervisor.default_options))
  in
  (* denominator: one real partition request through the worker, the
     unit the per-request supervision tax is charged against *)
  let wconfig =
    {
      Worker.faults = None;
      backend = None;
      default_deadline_ms = None;
      default_fuel = None;
      drain = Hypar_server.Drain.create ~drain_timeout_ms:1000;
      queue_depth = (fun () -> 0);
      on_poll = None;
    }
  in
  let partition_req =
    match
      Protocol.parse_request
        (Printf.sprintf {|{"id":1,"verb":"partition","file":"%s","timing":%d}|}
           src_file Ofdm.timing_constraint)
    with
    | Ok req -> req
    | Error e -> failwith e
  in
  let t_req =
    time_best ~reps:7 (fun () ->
        match Worker.execute wconfig partition_req with
        | Protocol.Done _ -> ()
        | resp -> failwith (Protocol.render resp))
  in
  Sys.remove src_file;
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
  let overhead = per_req /. t_req in
  Printf.printf "inline session     : %10.3f ms (%d health requests, best of 5)\n"
    (t_inline *. 1e3) n;
  Printf.printf "supervised session : %10.3f ms (same stream, chaos off)\n"
    (t_sup *. 1e3);
  Printf.printf "envelopes identical: %s\n" (if identical then "yes" else "NO");
  Printf.printf "supervision tax    : %10.2f ns/request\n" (per_req *. 1e9);
  Printf.printf
    "supervision overhead: %.4f%% of one partition request (budget: 2%%)\n"
    (100. *. overhead);
  let failed = ref false in
  if not identical then begin
    Printf.printf
      "FAIL: chaos-free supervised responses differ from the inline session\n";
    failed := true
  end;
  if overhead > 0.02 then begin
    Printf.printf "FAIL: supervision exceeds the 2%% overhead budget\n";
    failed := true
  end;
  if !failed then exit 1;
  let oc = open_out "BENCH_soak.json" in
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
    n t_inline t_sup (per_req *. 1e9) t_req overhead identical;
  close_out oc;
  Printf.printf "wrote BENCH_soak.json\n";
  print_newline ()

(* ---- Dataflow: solver throughput and global-pass shrinkage -------------- *)

let dataflow_bench () =
  section_header "Dataflow — solver throughput and global-pass shrinkage";
  let module D = Hypar_ir.Dataflow in
  let module Passes = Hypar_ir.Passes in
  let module Cdfg = Hypar_ir.Cdfg in
  let srcs =
    [
      ("OFDM", Ofdm.source);
      ("JPEG", Jpeg.source);
      ("Sobel", Hypar_apps.Sobel.source);
      ("ADPCM", Hypar_apps.Adpcm.source);
    ]
  in
  let counts cdfg = (Cdfg.block_count cdfg, Cdfg.total_instrs cdfg) in
  let rows =
    List.map
      (fun (name, src) ->
        let raw = Hypar_minic.Driver.compile_exn ~name ~simplify:false src in
        let cfg = Cdfg.cfg raw in
        let iterations = (D.Liveness.solve cfg).D.iterations in
        let batch = 50 in
        (* the analyses the optimizer and verifier run *)
        let t =
          time_best ~reps:7 (fun () ->
              for _ = 1 to batch do
                ignore (D.Liveness.solve cfg);
                ignore (D.Avail.solve (Hypar_ir.Exprs.build cfg) cfg);
                ignore (D.solve (module D.Consts) cfg)
              done)
        in
        let solves_per_sec = float_of_int (3 * batch) /. t in
        let simplified = Passes.simplify ~verify:false raw in
        let optimized = Passes.optimize ~verify:false raw in
        let after_global pass =
          snd (counts (Passes.dead_code_eliminate (pass raw)))
        in
        ( name,
          counts raw,
          counts simplified,
          counts optimized,
          [
            ("const", after_global Passes.global_const_propagate);
            ("copy", after_global Passes.global_copy_propagate);
            ("cse", after_global Passes.global_cse);
          ],
          iterations,
          solves_per_sec ))
      srcs
  in
  Printf.printf
    "%-6s | %12s | %13s | %13s | %19s | %6s | %11s\n"
    "app" "raw blk/ins" "simplify ins" "optimize ins" "global pass ins"
    "iters" "solves/s";
  List.iter
    (fun (name, (rb, ri), (_, si), (ob, oi), globals, iters, sps) ->
      Printf.printf
        "%-6s | %5d /%5d | %13d | %6d /%5d | %s | %6d | %11.0f\n"
        name rb ri si ob oi
        (String.concat " "
           (List.map (fun (p, n) -> Printf.sprintf "%s:%d" p n) globals))
        iters sps)
    rows;
  (* acceptance gate: each global pass (after DCE) strictly shrinks the
     raw CDFG on at least two of the four apps *)
  let shrinkers pass_name =
    List.length
      (List.filter
         (fun (_, (_, ri), _, _, globals, _, _) ->
           List.assoc pass_name globals < ri)
         rows)
  in
  List.iter
    (fun p ->
      let n = shrinkers p in
      Printf.printf "global %-5s shrinks %d/4 apps%s\n" p n
        (if n >= 2 then "" else "  <-- FAIL (budget: >= 2)"))
    [ "const"; "copy"; "cse" ];
  if List.exists (fun p -> shrinkers p < 2) [ "const"; "copy"; "cse" ] then begin
    Printf.printf "FAIL: a global pass shrinks fewer than 2/4 apps\n";
    exit 1
  end;
  (* first perf snapshot: committed as BENCH_dataflow.json so later PRs
     can diff solver throughput and pipeline shrinkage *)
  let oc = open_out "BENCH_dataflow.json" in
  Printf.fprintf oc "{\n  \"section\": \"dataflow\",\n  \"apps\": [\n";
  List.iteri
    (fun i (name, (rb, ri), (sb, si), (ob, oi), globals, iters, sps) ->
      Printf.fprintf oc
        "    {\"app\": %S, \"raw\": {\"blocks\": %d, \"instrs\": %d},\n\
        \     \"simplify\": {\"blocks\": %d, \"instrs\": %d},\n\
        \     \"optimize\": {\"blocks\": %d, \"instrs\": %d},\n\
        \     \"global_pass_instrs\": {%s},\n\
        \     \"liveness_iterations\": %d, \"solves_per_sec\": %.0f}%s\n"
        name rb ri sb si ob oi
        (String.concat ", "
           (List.map (fun (p, n) -> Printf.sprintf "%S: %d" p n) globals))
        iters sps
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_dataflow.json\n";
  print_newline ()

(* ---- bytecode: decompiled frontend vs direct frontend ------------------- *)

let bytecode_bench () =
  section_header "Bytecode — decompiled frontend vs direct Mini-C frontend";
  let module Passes = Hypar_ir.Passes in
  let module Cdfg = Hypar_ir.Cdfg in
  let module B = Hypar_bytecode in
  let module Interp = Hypar_profiling.Interp in
  let apps =
    [
      ("OFDM", Ofdm.source, Ofdm.inputs ());
      ("JPEG", Jpeg.source, Jpeg.inputs ());
      ("Sobel", Hypar_apps.Sobel.source, Hypar_apps.Sobel.inputs ());
      ("ADPCM", Hypar_apps.Adpcm.source, Hypar_apps.Adpcm.inputs ());
    ]
  in
  let observed cdfg inputs =
    let r = Interp.run ~inputs cdfg in
    (r.Interp.return_value, List.sort compare r.Interp.arrays)
  in
  let rows =
    List.map
      (fun (name, src, inputs) ->
        let direct_raw =
          Hypar_minic.Driver.compile_exn ~name ~simplify:false src
        in
        let direct_opt = Passes.optimize ~verify:false direct_raw in
        let prog = B.Emit.program direct_raw in
        let bc_insns =
          List.length
            (List.filter
               (fun (_, item) ->
                 match item with B.Prog.Insn _ -> true | B.Prog.Label _ -> false)
               prog.B.Prog.code)
        in
        let bc_raw =
          B.Driver.compile_exn ~name ~optimize:false ~verify_ir:false
            (B.Prog.to_string prog)
        in
        let bc_opt = Passes.optimize ~verify:false bc_raw in
        let matches = observed direct_opt inputs = observed bc_opt inputs in
        ( name,
          bc_insns,
          Cdfg.total_instrs direct_raw,
          Cdfg.total_instrs direct_opt,
          Cdfg.total_instrs bc_raw,
          Cdfg.total_instrs bc_opt,
          matches ))
      apps
  in
  Printf.printf "%-6s | %8s | %10s | %10s | %8s | %8s | %6s\n" "app"
    "bc insns" "direct raw" "decomp raw" "direct-O" "decomp-O" "interp";
  List.iter
    (fun (name, bc, dr, dopt, br, bopt, matches) ->
      Printf.printf "%-6s | %8d | %10d | %10d | %8d | %8d | %6s\n" name bc dr
        br dopt bopt
        (if matches then "match" else "DIFFER"))
    rows;
  (* acceptance gates: the decompiled program must behave identically under
     the interpreter, and after -O the recovered CDFG must be within 10% of
     the direct frontend's instruction count *)
  let failed = ref false in
  List.iter
    (fun (name, _, _, dopt, _, bopt, matches) ->
      if not matches then begin
        Printf.printf "FAIL: %s interpreter outputs differ across frontends\n"
          name;
        failed := true
      end;
      if 10 * abs (bopt - dopt) > dopt then begin
        Printf.printf
          "FAIL: %s decompiled -O instrs %d deviate >10%% from direct %d\n"
          name bopt dopt;
        failed := true
      end)
    rows;
  if !failed then exit 1;
  Printf.printf "all apps: interpreter match, -O instr counts within 10%%\n";
  let oc = open_out "BENCH_bytecode.json" in
  Printf.fprintf oc "{\n  \"section\": \"bytecode\",\n  \"apps\": [\n";
  List.iteri
    (fun i (name, bc, dr, dopt, br, bopt, matches) ->
      Printf.fprintf oc
        "    {\"app\": %S, \"bytecode_insns\": %d,\n\
        \     \"direct\": {\"raw\": %d, \"optimized\": %d},\n\
        \     \"decompiled\": {\"raw\": %d, \"optimized\": %d},\n\
        \     \"interp_match\": %b}%s\n"
        name bc dr dopt br bopt matches
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_bytecode.json\n";
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
        let r_tree = ref None and r_comp = ref None and r_poll = ref None in
        let t_tree =
          time_best ~reps:3 (fun () -> r_tree := Some (Interp.run ~inputs cdfg))
        in
        let t_comp =
          time_best ~reps:3 (fun () -> r_comp := Some (Exec.run ~inputs cdfg))
        in
        let t_poll =
          time_best ~reps:3 (fun () ->
              r_poll := Some (Exec.run ~poll:ignore ~inputs cdfg))
        in
        let equal = !r_tree = !r_comp && !r_tree = !r_poll in
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
  let t_full =
    time_best ~reps:5 (fun () ->
        for _ = 1 to batch do
          let full =
            Engine.evaluate pl prepared.Flow.cdfg prepared.Flow.profile
          in
          ignore (full []);
          List.iter (fun prefix -> ignore (full prefix)) prefixes
        done)
  in
  let inc = Engine.Inc.create pl prepared.Flow.cdfg prepared.Flow.profile in
  let t_delta =
    time_best ~reps:5 (fun () ->
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
  let oc = open_out "BENCH_interp.json" in
  Printf.fprintf oc "{\n  \"section\": \"interp\",\n  \"apps\": [\n";
  List.iteri
    (fun i (name, t_tree, t_comp, t_poll, speedup, equal) ->
      Printf.fprintf oc
        "    {\"app\": %S, \"tree_ms\": %.3f, \"compiled_ms\": %.3f, \
         \"compiled_poll_ms\": %.3f, \"speedup\": %.2f, \"identical\": %b}%s\n"
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
    engine_speedup;
  close_out oc;
  Printf.printf "wrote BENCH_interp.json\n";
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
  let t0 = Unix.gettimeofday () in
  let bytes = ref 0 in
  for seed = 1 to n_gen do
    bytes := !bytes + String.length (Hypar_fuzzgen.Gen.source seed)
  done;
  let t_gen = Unix.gettimeofday () -. t0 in
  let gen_rate = float_of_int n_gen /. t_gen in
  Printf.printf "generator: %d programs (%.1f KiB) in %.3f s -> %.0f prog/s\n"
    n_gen
    (float_of_int !bytes /. 1024.)
    t_gen gen_rate;
  let t0 = Unix.gettimeofday () in
  let r1 = Runner.run { Runner.default with Runner.seed = 21; count = n_oracle } in
  let t_oracle = Unix.gettimeofday () -. t0 in
  let oracle_rate = float_of_int n_oracle /. t_oracle in
  Printf.printf
    "oracle matrix: %d programs in %.3f s -> %.1f prog/s (%d passes)\n"
    n_oracle t_oracle oracle_rate r1.Runner.passes;
  let r2 =
    Runner.run { Runner.default with Runner.seed = 21; count = n_oracle; jobs = 2 }
  in
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
  let oc = open_out "BENCH_fuzz.json" in
  Printf.fprintf oc
    "{\n\
    \  \"section\": \"fuzz\",\n\
    \  \"generator\": {\"programs\": %d, \"seconds\": %.3f, \"rate_per_s\": \
     %.0f},\n\
    \  \"oracle\": {\"programs\": %d, \"seconds\": %.3f, \"rate_per_s\": %.1f, \
     \"passes\": %d},\n\
    \  \"deterministic_across_jobs\": %b\n\
     }\n"
    n_gen t_gen gen_rate n_oracle t_oracle oracle_rate r1.Runner.passes
    deterministic;
  close_out oc;
  Printf.printf "wrote BENCH_fuzz.json\n";
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
    ("explore", explore_bench);
    ("obs", obs_bench);
    ("resilience", resilience_bench);
    ("serve", serve_bench);
    ("extension:pipeline", extension_pipeline);
    ("extension:energy", extension_energy);
    ("extension:modulo", extension_modulo);
    ("dataflow", dataflow_bench);
    ("bytecode", bytecode_bench);
    ("interp", interp_bench);
    ("fuzz", fuzz_bench);
    ("soak", soak_bench);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst sections
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
