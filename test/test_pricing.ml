(* The characterisation kernels against their oracles: the one-walk
   Figure-3 pricing against the table-based partitioner and cycle
   accounting (Fine_reference), and the array list scheduler against the
   list-based one (Schedule_reference), over generated programs — each as
   lowered, optimized and recovered from its bytecode. *)

module Ir = Hypar_ir
module Fpga = Hypar_finegrain.Fpga
module Temporal = Hypar_finegrain.Temporal
module Fine_map = Hypar_finegrain.Fine_map
module Cgc = Hypar_coarsegrain.Cgc
module Schedule = Hypar_coarsegrain.Schedule
module Coarse_map = Hypar_coarsegrain.Coarse_map
module Fault = Hypar_resilience.Fault

(* a generated program's three CDFGs: raw, optimized, bytecode-recovered *)
let cdfgs_of seed =
  match
    Hypar_minic.Driver.compile ~name:"pricing" ~simplify:false
      (Hypar_fuzzgen.Gen.source seed)
  with
  | Error e ->
    QCheck.Test.fail_reportf "generated program does not compile: %s"
      (Ir.Frontend.string_of_error e)
  | Ok raw ->
    let recovered =
      Hypar_bytecode.Driver.compile_exn ~name:"pricing" ~optimize:false
        ~verify_ir:false
        (Hypar_bytecode.Emit.to_string raw)
    in
    [ ("raw", raw); ("-O", Ir.Passes.optimize ~verify:false raw);
      ("bytecode", recovered) ]

let each_block seed f =
  List.iter
    (fun (variant, cdfg) ->
      List.iter (fun i -> f variant cdfg i) (Ir.Cdfg.block_ids cdfg))
    (cdfgs_of seed)

let expect what variant i pp expected actual =
  if expected <> actual then
    QCheck.Test.fail_reportf "%s, BB%d: %s is %a, the oracle gives %a" variant
      i what pp actual pp expected

let pp_int = Format.pp_print_int

let pp_partitions ppf (t : Temporal.t) =
  Temporal.pp ppf t;
  Format.fprintf ppf " assignment=[%s]"
    (String.concat ";"
       (Array.to_list (Array.map string_of_int t.Temporal.assignment)))

(* ---- fine grain ---------------------------------------------------------- *)

let models =
  [
    ("flat", Fpga.Flat);
    ("frame-full", Fpga.Frame_full Fpga.default_frame_params);
    ("frame-partial", Fpga.Frame_partial Fpga.default_frame_params);
  ]

(* areas from 1 (every node oversized) to 10,000 (a block in one
   partition), the small end drawn often *)
let area_gen =
  QCheck.Gen.(
    frequency [ (1, return 1); (3, int_range 1 64); (3, int_range 1 10_000) ])

let fine_arb =
  QCheck.make
    ~print:(fun (seed, areas) ->
      Printf.sprintf "seed %d, areas [%s]" seed
        (String.concat ";" (List.map string_of_int areas)))
    QCheck.Gen.(pair (int_range 1 1_000_000) (list_size (return 2) area_gen))

let prop_fine_prices =
  QCheck.Test.make
    ~name:"fine: price and map_block equal the Figure-3 oracle (raw, -O, bytecode)"
    ~count:200 fine_arb (fun (seed, areas) ->
      each_block seed (fun variant cdfg i ->
          let dfg = Ir.Cdfg.dfg cdfg i in
          List.iter
            (fun area ->
              List.iter
                (fun (model, reconfig_model) ->
                  let fpga = Fpga.make ~reconfig_model ~area () in
                  let variant = Printf.sprintf "%s, area %d, %s" variant area model in
                  let o = Fine_reference.map_dfg fpga dfg in
                  let m = Fine_map.map_block fpga cdfg i in
                  let p = Fine_map.price fpga cdfg i in
                  expect "map_block's partition count" variant i pp_int
                    o.partition_count m.Fine_map.partition_count;
                  expect "map_block's compute cycles" variant i pp_int
                    o.compute_cycles m.Fine_map.compute_cycles;
                  expect "map_block's reconfiguration cycles" variant i pp_int
                    o.reconfig_cycles m.Fine_map.reconfig_cycles;
                  expect "map_block's cycles per iteration" variant i pp_int
                    o.cycles_per_iteration m.Fine_map.cycles_per_iteration;
                  expect "map_block's partitions" variant i pp_partitions
                    o.partitions m.Fine_map.partitions;
                  expect "price's partition count" variant i pp_int
                    o.partition_count p.Fine_map.partition_count;
                  expect "price's cycles per iteration" variant i pp_int
                    o.cycles_per_iteration p.Fine_map.cycles_per_iteration)
                models)
            areas);
      true)

let prop_temporal_partition =
  QCheck.Test.make
    ~name:"fine: Temporal.partition equals the Figure-3 oracle (raw, -O, bytecode)"
    ~count:200 fine_arb (fun (seed, areas) ->
      each_block seed (fun variant cdfg i ->
          let dfg = Ir.Cdfg.dfg cdfg i in
          List.iter
            (fun area ->
              let size = Fpga.op_area (Fpga.make ~area ()) in
              let variant = Printf.sprintf "%s, area %d" variant area in
              expect "the partitioning" variant i pp_partitions
                (Fine_reference.partition ~area ~size dfg)
                (Temporal.partition ~area ~size dfg);
              expect "the level order" variant i
                (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_int)
                (List.concat_map
                   (Fine_reference.nodes_at_level dfg)
                   (List.init (Ir.Dfg.max_level dfg) succ))
                (Array.to_list (Ir.Dfg.level_order dfg)))
            areas);
      true)

(* ---- coarse grain -------------------------------------------------------- *)

type geometry = { cgcs : int; rows : int; cols : int; faults : Fault.fault list }

let fault_gen =
  QCheck.Gen.(
    oneof
      [
        (fun (cgc, row, col, u) ->
          Fault.Dead_node
            {
              cgc;
              row;
              col;
              unit_kind =
                (match u with
                | 0 -> Fault.Mult
                | 1 -> Fault.Alu
                | _ -> Fault.Both);
            })
        <$> quad (int_range 0 3) (int_range 0 3) (int_range 0 3)
              (int_range 0 2);
        (fun c -> Fault.Dead_cgc c) <$> int_range 0 3;
      ])

let geometry_gen =
  QCheck.Gen.(
    (fun (cgcs, rows, cols, faults) -> { cgcs; rows; cols; faults })
    <$> quad (int_range 1 4) (int_range 1 4) (int_range 1 4)
          (list_size (int_range 0 4) fault_gen))

let describe g =
  Printf.sprintf "%d CGC(s) of %dx%d, faults %s" g.cgcs g.rows g.cols
    (Hypar_resilience.Spec.to_text { Fault.seed = 0; faults = g.faults })

let schedule_arb =
  QCheck.make
    ~print:(fun (seed, g) -> Printf.sprintf "seed %d, %s" seed (describe g))
    QCheck.Gen.(pair (int_range 1 1_000_000) geometry_gen)

(* the data-path as built, and as [Degrade.apply] leaves it *)
let healths g =
  let platform =
    Hypar_core.Platform.of_geometry ~area:1000 ~cgcs:g.cgcs ~rows:g.rows
      ~cols:g.cols ~clock_ratio:1
  in
  let cgc = platform.Hypar_core.Platform.cgc in
  match
    Hypar_resilience.Degrade.apply ~strict:false
      { Fault.seed = 0; faults = g.faults } platform
  with
  | Ok degraded -> (cgc, [ None; degraded.Hypar_core.Platform.cgc_health ])
  | Error msg -> QCheck.Test.fail_reportf "faults do not apply: %s" msg

(* Each block is scheduled on two geometries (healthy and degraded) in
   a row, in both orders and with the priorities interleaved, each time
   on a DFG whose kept priority order and predecessor arrays were first
   computed for another geometry or priority: every schedule must still
   equal a fresh oracle schedule. *)
let prop_schedule =
  QCheck.Test.make
    ~name:"cgc: the array scheduler places as the list oracle (raw, -O, bytecode)"
    ~count:200
    (QCheck.make
       ~print:(fun (seed, g1, g2) ->
         Printf.sprintf "seed %d, %s, then %s" seed (describe g1) (describe g2))
       QCheck.Gen.(triple (int_range 1 1_000_000) geometry_gen geometry_gen))
    (fun (seed, g1, g2) ->
      let setups =
        List.concat_map
          (fun g ->
            let cgc, healths = healths g in
            List.map (fun health -> (cgc, health)) healths)
          [ g1; g2 ]
      in
      let priorities =
        [ ("ALAP", `Alap); ("ASAP", `Asap); ("program-order", `Program) ]
      in
      each_block seed (fun variant cdfg i ->
          let instrs = (Ir.Cdfg.info cdfg i).Ir.Cdfg.block.Ir.Block.instrs in
          List.iter
            (fun (dfg, setups, priorities) ->
              List.iter
                (fun ((cgc : Cgc.t), health) ->
                  if Schedule.supported_on ?health cgc dfg then
                    List.iter
                      (fun (name, priority) ->
                        expect
                          (Printf.sprintf "the %s schedule on %s%s" name
                             (Cgc.describe cgc)
                             (if health = None then "" else " (degraded)"))
                          variant i Schedule.pp
                          (Schedule_reference.schedule ~priority ?health cgc dfg)
                          (Schedule.schedule ~priority ?health cgc dfg))
                      priorities)
                setups)
            [
              (Ir.Cdfg.dfg cdfg i, setups, priorities);
              (Ir.Dfg.of_instrs instrs, List.rev setups, List.rev priorities);
              (Ir.Dfg.of_instrs instrs, setups, List.rev priorities);
            ]);
      true)

let prop_coarse_latency =
  QCheck.Test.make
    ~name:"cgc: Coarse_map.latency equals map_block's latency (raw, -O, bytecode)"
    ~count:200 schedule_arb (fun (seed, g) ->
      let cgc, healths = healths g in
      each_block seed (fun variant cdfg i ->
          List.iter
            (fun health ->
              expect "the latency" variant i
                (Format.pp_print_option pp_int)
                (Option.map
                   (fun (m : Coarse_map.block_mapping) -> m.Coarse_map.latency)
                   (Coarse_map.map_block ?health cgc cdfg i))
                (Coarse_map.latency ?health cgc (Ir.Cdfg.dfg cdfg i)))
            healths);
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fine_prices; prop_temporal_partition; prop_schedule; prop_coarse_latency ]
