(* Property-based tests (QCheck) over the core invariants:
   - DFG levelling and well-formedness on random DFGs;
   - Figure-3 temporal partitioning validity, coverage and area bounds;
   - CGC schedule validity and resource bounds;
   - optimisation passes preserve program semantics;
   - the interpreter's block/edge accounting is consistent;
   - Eq. 2 accounting holds for arbitrary moved sets. *)

module Ir = Hypar_ir
module Temporal = Hypar_finegrain.Temporal
module Fpga = Hypar_finegrain.Fpga
module Schedule = Hypar_coarsegrain.Schedule
module Binding = Hypar_coarsegrain.Binding
module Cgc = Hypar_coarsegrain.Cgc
module Synth = Hypar_apps.Synth
module Gen = Hypar_fuzzgen.Gen
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let dfg_arb =
  QCheck.make
    ~print:(fun (seed, nodes) -> Printf.sprintf "seed=%d nodes=%d" seed nodes)
    QCheck.Gen.(pair (int_range 1 10_000) (int_range 1 150))

let prop_dfg_levels =
  QCheck.Test.make ~name:"dfg: asap <= alap <= max_level, forward edges"
    ~count:60 dfg_arb (fun (seed, nodes) ->
      let dfg = Synth.random_dfg ~seed ~nodes () in
      let asap = Ir.Dfg.asap dfg and alap = Ir.Dfg.alap dfg in
      let ml = Ir.Dfg.max_level dfg in
      Ir.Dfg.is_well_formed dfg
      && Array.for_all (fun l -> l >= 1 && l <= ml) asap
      && Array.to_list asap
         |> List.mapi (fun i a -> a <= alap.(i) && alap.(i) <= ml)
         |> List.for_all Fun.id)

let prop_temporal_valid =
  QCheck.Test.make ~name:"temporal: valid, covering, within area" ~count:60
    (QCheck.pair dfg_arb (QCheck.make QCheck.Gen.(int_range 100 4000)))
    (fun ((seed, nodes), area) ->
      let dfg = Synth.random_dfg ~seed ~nodes () in
      let fpga = Fpga.make ~area () in
      let size = Fpga.op_area fpga in
      let tp = Temporal.partition ~area ~size dfg in
      let covered =
        List.fold_left
          (fun acc (p : Temporal.partition) -> acc + List.length p.node_ids)
          0 tp.Temporal.partitions
      in
      let within_area =
        List.for_all
          (fun (p : Temporal.partition) ->
            (* only single oversized nodes may exceed the budget *)
            p.area_used <= area || List.length p.node_ids = 1)
          tp.Temporal.partitions
      in
      Temporal.is_valid dfg tp && covered = Ir.Dfg.node_count dfg && within_area)

let prop_temporal_monotone =
  QCheck.Test.make ~name:"temporal: partition count decreases with area"
    ~count:40 dfg_arb (fun (seed, nodes) ->
      let dfg = Synth.random_dfg ~seed ~nodes () in
      let count area =
        let fpga = Fpga.make ~area () in
        Temporal.count (Temporal.partition ~area ~size:(Fpga.op_area fpga) dfg)
      in
      count 300 >= count 1200 && count 1200 >= count 6000)

let prop_schedule_valid =
  QCheck.Test.make ~name:"schedule: valid under all constraints" ~count:60
    (QCheck.pair dfg_arb (QCheck.make QCheck.Gen.(int_range 1 4)))
    (fun ((seed, nodes), k) ->
      let dfg = Synth.random_dfg ~seed ~nodes () in
      QCheck.assume (Schedule.supported dfg);
      let cgc = Cgc.two_by_two k in
      let s = Schedule.schedule cgc dfg in
      Schedule.is_valid cgc dfg s)

let prop_binding_valid =
  QCheck.Test.make ~name:"binding: physical placement is conflict-free"
    ~count:40 dfg_arb (fun (seed, nodes) ->
      let dfg = Synth.random_dfg ~seed ~nodes () in
      QCheck.assume (Schedule.supported dfg);
      let cgc = Cgc.two_by_two 2 in
      let s = Schedule.schedule cgc dfg in
      Binding.is_valid cgc (Binding.bind cgc dfg s))

let prop_more_cgcs_never_hurt =
  QCheck.Test.make ~name:"schedule: makespan monotone in CGC count" ~count:40
    dfg_arb (fun (seed, nodes) ->
      let dfg = Synth.random_dfg ~seed ~nodes () in
      QCheck.assume (Schedule.supported dfg);
      let m k = (Schedule.schedule (Cgc.two_by_two k) dfg).Schedule.makespan in
      m 3 <= m 2)

(* A fuzz-generator program nesting loops and branches up to [depth]. *)
let structured ~seed ~depth = Gen.source ~config:{ Gen.default_config with max_depth = depth } seed

let prop_passes_preserve_semantics =
  QCheck.Test.make ~name:"passes: simplify preserves the computed value"
    ~count:40
    (QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      let raw = Driver.compile_exn ~simplify:false (Gen.source seed) in
      Outputs.of_cdfg raw = Outputs.of_cdfg (Ir.Passes.simplify raw))

let prop_structured_programs_roundtrip =
  QCheck.Test.make ~name:"frontend: structured programs compile and run"
    ~count:30
    (QCheck.make
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck.Gen.(pair (int_range 1 100_000) (int_range 1 4)))
    (fun (seed, depth) ->
      let raw = Driver.compile_exn ~simplify:false (structured ~seed ~depth) in
      Outputs.of_cdfg raw = Outputs.of_cdfg (Ir.Passes.simplify raw))

let prop_edge_block_consistency =
  QCheck.Test.make ~name:"interp: edge counts sum to block frequencies"
    ~count:30
    (QCheck.make
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck.Gen.(pair (int_range 1 100_000) (int_range 1 4)))
    (fun (seed, depth) ->
      let src = structured ~seed ~depth in
      let cdfg = Driver.compile_exn src in
      let r = Interp.run cdfg in
      let incoming = Array.make (Ir.Cdfg.block_count cdfg) 0 in
      List.iter
        (fun (((_, dst), c) : (int * int) * int) ->
          incoming.(dst) <- incoming.(dst) + c)
        r.Interp.edge_freq;
      let entry = Ir.Cfg.entry (Ir.Cdfg.cfg cdfg) in
      Array.to_list r.Interp.exec_freq
      |> List.mapi (fun i freq ->
             if i = entry then incoming.(i) = freq - 1 else incoming.(i) = freq)
      |> List.for_all Fun.id)

let prop_engine_eq2 =
  QCheck.Test.make ~name:"engine: Eq. 2 holds for every step" ~count:15
    (QCheck.make
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck.Gen.(pair (int_range 1 100_000) (int_range 2 4)))
    (fun (seed, depth) ->
      let src = structured ~seed ~depth in
      let prepared = Hypar_core.Flow.prepare ~name:"prop" src in
      let platform = List.hd (Hypar_core.Platform.paper_configs ()) in
      let r = Hypar_core.Flow.partition platform ~timing_constraint:1 prepared in
      let ok (x : Hypar_core.Engine.times) =
        x.Hypar_core.Engine.t_total
        = x.Hypar_core.Engine.t_fpga + x.Hypar_core.Engine.t_coarse
          + x.Hypar_core.Engine.t_comm
      in
      ok r.Hypar_core.Engine.initial
      && List.for_all
           (fun (s : Hypar_core.Engine.step) -> ok s.Hypar_core.Engine.times)
           r.Hypar_core.Engine.steps)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialize: to_string/of_string round trip" ~count:25
    (QCheck.make
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck.Gen.(pair (int_range 1 100_000) (int_range 1 4)))
    (fun (seed, depth) ->
      let src = structured ~seed ~depth in
      let cdfg = Driver.compile_exn src in
      let back = Ir.Serialize.of_string (Ir.Serialize.to_string cdfg) in
      Array.to_list (Ir.Cfg.blocks (Ir.Cdfg.cfg cdfg))
      = Array.to_list (Ir.Cfg.blocks (Ir.Cdfg.cfg back))
      && Ir.Cdfg.arrays cdfg = Ir.Cdfg.arrays back)

let prop_best_fit_valid_and_no_worse =
  QCheck.Test.make ~name:"temporal: backfill valid and never worse" ~count:40
    dfg_arb (fun (seed, nodes) ->
      let dfg = Synth.random_dfg ~seed ~nodes () in
      let fpga = Fpga.make ~area:1200 () in
      let size = Fpga.op_area fpga in
      let paper = Temporal.partition ~area:1200 ~size dfg in
      let bf = Temporal.partition_best_fit ~area:1200 ~size dfg in
      Temporal.is_valid dfg bf && Temporal.count bf <= Temporal.count paper)

let prop_bitstream_verifies =
  QCheck.Test.make ~name:"bitstream: generated streams always verify" ~count:40
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d ops=%d" seed n)
       QCheck.Gen.(pair (int_range 1 100_000) (int_range 1 20)))
    (fun (seed, n) ->
      let next = ref seed in
      let rand bound =
        next := ((!next * 1103515245) + 12345) land 0x3FFFFFFF;
        1 + (!next mod bound)
      in
      let fpga = Fpga.make ~area:4000 () in
      let device = Bitstream.device_of_fpga fpga in
      let op_areas = List.init n (fun _ -> rand 64) in
      match Bitstream.generate device ~op_areas with
      | s ->
        Bitstream.verify s
        && Bitstream.reconfig_cycles s > 0
      | exception Invalid_argument _ -> true)

let prop_gantt_row_count =
  QCheck.Test.make ~name:"binding: gantt covers every node op" ~count:25
    dfg_arb (fun (seed, nodes) ->
      let dfg = Synth.random_dfg ~seed ~nodes () in
      QCheck.assume (Schedule.supported dfg);
      let cgc = Cgc.two_by_two 2 in
      let s = Schedule.schedule cgc dfg in
      let b = Binding.bind cgc dfg s in
      let gantt = Binding.render_gantt cgc dfg s b in
      (* every physical slot appears as a labelled row *)
      String.length gantt > 0
      && List.length (String.split_on_char '\n' gantt)
         >= (Cgc.node_slots cgc + cgc.Cgc.mem_ports))

module Obs = Hypar_obs

let with_recording f =
  Obs.Sink.clear ();
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Sink.clear ())
    (fun () -> Obs.Sink.with_clock (Obs.Clock.counter ()) f)

(* Random span trees with interleaved counter increments: the recorded
   stream must be properly nested (every end closes the most recent open
   begin), the span count must match the executed tree, and each counter
   total must equal the sum of its per-node increments. *)
let prop_obs_random_trees =
  QCheck.Test.make ~name:"obs: random span trees balanced, totals add up"
    ~count:60
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d nodes=%d" seed n)
       QCheck.Gen.(pair (int_range 1 10_000) (int_range 1 60)))
    (fun (seed, n) ->
      let next = ref seed in
      let rand bound =
        next := ((!next * 1103515245) + 12345) land 0x3FFFFFFF;
        !next mod bound
      in
      let budget = ref n in
      let executed = ref 0 in
      let increments : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let rec node depth =
        if !budget > 0 then begin
          decr budget;
          incr executed;
          Obs.Span.with_ (Printf.sprintf "d%d" depth) (fun () ->
              let name = Printf.sprintf "c%d" (rand 3) in
              let by = 1 + rand 5 in
              Obs.Counter.incr ~by name;
              Hashtbl.replace increments name
                (by + Option.value (Hashtbl.find_opt increments name) ~default:0);
              for _ = 1 to rand 3 do
                node (depth + 1)
              done)
        end
      in
      let events =
        with_recording (fun () ->
            while !budget > 0 do
              node 0
            done;
            Obs.Sink.events ())
      in
      match Obs.Span.validate events with
      | Error _ -> false
      | Ok s ->
        let totals = Obs.Counter.totals events in
        s.Obs.Span.spans = !executed
        && List.length totals = Hashtbl.length increments
        && List.for_all
             (fun (name, total) -> Hashtbl.find_opt increments name = Some total)
             totals)

(* The instrumented production pipeline itself must emit a well-nested
   stream for arbitrary compiled programs. *)
let prop_obs_pipeline_balanced =
  QCheck.Test.make ~name:"obs: real pipeline traces are balanced" ~count:10
    (QCheck.make
       ~print:(fun (seed, depth) -> Printf.sprintf "seed=%d depth=%d" seed depth)
       QCheck.Gen.(pair (int_range 1 100_000) (int_range 1 3)))
    (fun (seed, depth) ->
      let src = structured ~seed ~depth in
      let events =
        with_recording (fun () ->
            let prepared = Hypar_core.Flow.prepare ~name:"prop" src in
            let platform = List.hd (Hypar_core.Platform.paper_configs ()) in
            ignore
              (Hypar_core.Flow.partition platform ~timing_constraint:1 prepared);
            Obs.Sink.events ())
      in
      match Obs.Span.validate events with
      | Ok s -> s.Obs.Span.spans > 0
      | Error _ -> false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dfg_levels;
      prop_temporal_valid;
      prop_temporal_monotone;
      prop_schedule_valid;
      prop_binding_valid;
      prop_more_cgcs_never_hurt;
      prop_passes_preserve_semantics;
      prop_structured_programs_roundtrip;
      prop_edge_block_consistency;
      prop_engine_eq2;
      prop_serialize_roundtrip;
      prop_best_fit_valid_and_no_worse;
      prop_bitstream_verifies;
      prop_gantt_row_count;
      prop_obs_random_trees;
      prop_obs_pipeline_balanced;
    ]
