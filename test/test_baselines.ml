(* Unit tests for the kernel-selection baselines and the temporal
   partitioning baseline. *)

module Ir = Hypar_ir
module Baselines = Hypar_core.Baselines
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform
module Flow = Hypar_core.Flow
module Temporal = Hypar_finegrain.Temporal
module Fpga = Hypar_finegrain.Fpga

let platform () = List.hd (Platform.paper_configs ())

let run platform ~timing_constraint cdfg profile strategy =
  List.hd
    (Baselines.compare_all ~strategies:[ strategy ] platform ~timing_constraint cdfg
       profile)

let prepared = lazy (Flow.prepare ~name:"two-loops" {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 4000; i = i + 1) {
    s = s + i * i;
  }
  int j;
  for (j = 0; j < 900; j = j + 1) {
    s = s + (j << 2) - 1;
  }
  out[0] = s;
}
|})

let budget prepared =
  let e = Engine.evaluate (platform ()) prepared.Flow.cdfg prepared.Flow.profile in
  (e []).Engine.t_total / 2

(* The paper's stop rule replayed with the from-scratch Eq.-2 oracle:
   kernels in Eq.-1 order, the ones the CGC cannot run skipped, stop at
   the first moved set that meets the constraint. *)
let replay_paper_greedy (platform : Platform.t) ~timing_constraint
    (p : Flow.prepared) =
  let evaluate = Engine.evaluate platform p.Flow.cdfg p.Flow.profile in
  let c = Engine.characterise platform p.Flow.cdfg p.Flow.profile in
  let kernels =
    List.filter_map
      (fun (k : Hypar_analysis.Kernel.entry) ->
        if c.Engine.coarse.Engine.latency.(k.block_id) <> None then
          Some k.block_id
        else None)
      (Hypar_analysis.Kernel.analyse p.Flow.cdfg p.Flow.profile)
        .Hypar_analysis.Kernel.kernels
  in
  let rec go moved kernels =
    let times = evaluate (List.rev moved) in
    if times.Engine.t_total <= timing_constraint then (List.rev moved, times)
    else
      match kernels with
      | [] -> (List.rev moved, times)
      | b :: rest -> go (b :: moved) rest
  in
  go [] kernels

let test_paper_greedy_matches_engine () =
  let p = Lazy.force prepared in
  let timing_constraint = budget p in
  let engine = Flow.partition (platform ()) ~timing_constraint p in
  let moved, times = replay_paper_greedy (platform ()) ~timing_constraint p in
  Alcotest.(check (list int)) "same moved set" moved engine.Engine.moved;
  Alcotest.(check int) "same final total" times.Engine.t_total
    engine.Engine.final.Engine.t_total

(* Ablation E pinned: every default strategy on the paper apps at their
   paper constraints, first paper platform.  Each row is (strategy,
   moved in move order, t_total, met, Eq.-2 evaluations). *)
let ablation_e_golden =
  [
    ( "OFDM",
      Hypar_apps.Ofdm.prepared,
      Hypar_apps.Ofdm.timing_constraint,
      [
        ("paper greedy (Eq.1 weight)", [ 10; 6; 16 ], 52129, true, 4);
        ("benefit greedy", [ 10; 6; 2 ], 52123, true, 21);
        (* BB6 and BB16 are single-block loops of equal weight (2688):
           equal groups keep their Eq.-1 order, ties by block id *)
        ("loop greedy (whole loops)", [ 10; 6; 16 ], 52129, true, 4);
        ("random order (seed 1)", [ 10; 11; 15; 3; 6 ], 52291, true, 6);
        ("exhaustive (top 12)", [ 10; 11; 9 ], 49267, true, 4096);
      ] );
    ( "JPEG",
      Hypar_apps.Jpeg.prepared,
      Hypar_apps.Jpeg.timing_constraint,
      [
        ("paper greedy (Eq.1 weight)", [ 9; 25; 7; 5; 3; 27 ], 10031179, true, 7);
        ("benefit greedy", [ 9; 25; 3; 27; 5; 7 ], 10031179, true, 37);
        ( "loop greedy (whole loops)",
          [ 25; 27; 26; 9; 7; 5; 3 ],
          9097261,
          true,
          6 );
        ( "random order (seed 1)",
          [ 24; 26; 14; 11; 25; 28; 30; 9; 18; 15; 7; 10; 29; 23; 21; 22; 27 ],
          10156563,
          true,
          18 );
        ("exhaustive (top 12)", [ 9; 25; 7; 5; 3; 27 ], 10031179, true, 4096);
      ] );
    ( "ADPCM",
      Hypar_apps.Adpcm.prepared,
      Hypar_apps.Adpcm.timing_constraint,
      [
        ("paper greedy (Eq.1 weight)", [ 12; 1; 3; 5; 7; 13 ], 580002, true, 7);
        ("benefit greedy", [ 1; 12; 15; 5; 7; 3 ], 538371, true, 21);
        ( "loop greedy (whole loops)",
          [ 12; 1; 3; 5; 7; 13; 15; 6; 2; 8; 4; 11; 14; 10 ],
          69015,
          true,
          2 );
        ( "random order (seed 1)",
          [ 1; 5; 11; 6; 14; 2; 10; 8; 15 ],
          594642,
          true,
          10 );
        ("exhaustive (top 12)", [ 1; 3; 5; 7; 15 ], 595715, true, 4096);
      ] );
  ]

let test_ablation_e_golden () =
  List.iter
    (fun (app, prepared, timing_constraint, expected) ->
      let p : Flow.prepared = prepared () in
      let got =
        List.map
          (fun (o : Baselines.outcome) ->
            (o.name, o.moved, o.t_total, o.met, o.evaluations))
          (Baselines.compare_all (platform ()) ~timing_constraint p.Flow.cdfg
             p.Flow.profile)
      in
      Alcotest.(check (list (pair string (pair (list int) (triple int bool int)))))
        app
        (List.map (fun (n, m, t, met, e) -> (n, (m, (t, met, e)))) expected)
        (List.map (fun (n, m, t, met, e) -> (n, (m, (t, met, e)))) got))
    ablation_e_golden

let test_exhaustive_no_worse_than_greedy () =
  let p = Lazy.force prepared in
  let timing_constraint = budget p in
  let run s = run (platform ()) ~timing_constraint p.Flow.cdfg p.Flow.profile s in
  let greedy = run Baselines.Paper_greedy in
  let optimal = run (Baselines.Exhaustive 10) in
  Alcotest.(check bool) "both met" true (greedy.Baselines.met && optimal.Baselines.met);
  Alcotest.(check bool) "optimal needs <= moves" true
    (List.length optimal.Baselines.moved <= List.length greedy.Baselines.moved)

let test_random_is_met_eventually () =
  let p = Lazy.force prepared in
  let timing_constraint = budget p in
  let r =
    run (platform ()) ~timing_constraint p.Flow.cdfg p.Flow.profile
      (Baselines.Random_order 7)
  in
  Alcotest.(check bool) "random order still converges" true r.Baselines.met

let test_compare_all () =
  let p = Lazy.force prepared in
  let timing_constraint = budget p in
  let outcomes =
    Baselines.compare_all (platform ()) ~timing_constraint p.Flow.cdfg
      p.Flow.profile
  in
  Alcotest.(check int) "five strategies" 5 (List.length outcomes);
  List.iter
    (fun (o : Baselines.outcome) ->
      Alcotest.(check bool) (o.name ^ " evaluations counted") true
        (o.evaluations > 0))
    outcomes

let test_exhaustive_cap () =
  (* a program with 22 distinct loop kernels trips the top-20 cap *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "int out[1];\nvoid main() {\n  int s = 0;\n";
  for k = 0 to 21 do
    Buffer.add_string buf
      (Printf.sprintf
         "  int i%d;\n  for (i%d = 0; i%d < %d; i%d = i%d + 1) { s = s + i%d * %d; }\n"
         k k k (10 + k) k k k (k + 1))
  done;
  Buffer.add_string buf "  out[0] = s;\n}\n";
  let p = Flow.prepare ~name:"many-loops" (Buffer.contents buf) in
  (match
     run (platform ()) ~timing_constraint:1 p.Flow.cdfg p.Flow.profile
       (Baselines.Exhaustive 25)
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected top-20 cap");
  (* but asking for fewer than 20 of them is fine *)
  let o =
    run (platform ()) ~timing_constraint:1 p.Flow.cdfg p.Flow.profile
      (Baselines.Exhaustive 8)
  in
  Alcotest.(check bool) "bounded search ran" true (o.Baselines.evaluations = 256)

(* --- temporal baseline -------------------------------------------------- *)

let test_backfill_no_worse () =
  for seed = 1 to 10 do
    let dfg = Hypar_apps.Synth.random_dfg ~seed ~nodes:120 () in
    let fpga = Fpga.make ~area:1500 () in
    let size = Fpga.op_area fpga in
    let paper = Temporal.partition ~area:1500 ~size dfg in
    let bf = Temporal.partition_best_fit ~area:1500 ~size dfg in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: backfill %d <= paper %d" seed
         (Temporal.count bf) (Temporal.count paper))
      true
      (Temporal.count bf <= Temporal.count paper);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: backfill respects dependences" seed)
      true (Temporal.is_valid dfg bf)
  done

let test_backfill_area_bound () =
  let dfg = Hypar_apps.Synth.random_dfg ~seed:31 ~nodes:100 () in
  let fpga = Fpga.make ~area:800 () in
  let bf = Temporal.partition_best_fit ~area:800 ~size:(Fpga.op_area fpga) dfg in
  List.iter
    (fun (p : Temporal.partition) ->
      Alcotest.(check bool) "area respected (or one oversized node)" true
        (p.area_used <= 800 || List.length p.node_ids = 1))
    bf.Temporal.partitions

let test_backfill_strictly_better_sometimes () =
  (* alternating big/small independent nodes: Figure 3 never returns to a
     partly filled partition, backfill does.  Sizes: mul 120, alu 60,
     area 130 -> Figure 3 opens 4 partitions, backfill only 3. *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        ignore (Ir.Builder.mul b "m1" (Ir.Builder.var x) (Ir.Builder.imm 3));
        ignore (Ir.Builder.bin b Ir.Types.Add "a1" (Ir.Builder.var x) (Ir.Builder.imm 1));
        ignore (Ir.Builder.mul b "m2" (Ir.Builder.var x) (Ir.Builder.imm 5));
        ignore (Ir.Builder.bin b Ir.Types.Add "a2" (Ir.Builder.var x) (Ir.Builder.imm 2)))
  in
  let size instr =
    match Ir.Instr.op_class instr with
    | Ir.Types.Class_mul -> 120
    | Ir.Types.Class_alu | Ir.Types.Class_div | Ir.Types.Class_mem
    | Ir.Types.Class_move ->
      60
  in
  let paper = Temporal.partition ~area:130 ~size dfg in
  let bf = Temporal.partition_best_fit ~area:130 ~size dfg in
  Alcotest.(check int) "Figure 3 opens 4 partitions" 4 (Temporal.count paper);
  Alcotest.(check int) "backfill packs into 3" 3 (Temporal.count bf)

let suite =
  [
    Alcotest.test_case "paper greedy = engine" `Quick test_paper_greedy_matches_engine;
    Alcotest.test_case "exhaustive no worse" `Quick test_exhaustive_no_worse_than_greedy;
    Alcotest.test_case "random converges" `Quick test_random_is_met_eventually;
    Alcotest.test_case "compare_all" `Quick test_compare_all;
    Alcotest.test_case "exhaustive cap" `Quick test_exhaustive_cap;
    Alcotest.test_case "Ablation E golden" `Quick test_ablation_e_golden;
    Alcotest.test_case "backfill no worse" `Quick test_backfill_no_worse;
    Alcotest.test_case "backfill area bound" `Quick test_backfill_area_bound;
    Alcotest.test_case "backfill strictly better" `Quick test_backfill_strictly_better_sometimes;
  ]

let adpcm_platform = platform

let test_loop_greedy_on_branchy_kernel () =
  (* the ADPCM loop spans many blocks: moving it whole avoids intra-loop
     fine/coarse transitions and beats per-block greedy by a wide margin *)
  let p = Hypar_apps.Adpcm.prepared () in
  let timing_constraint = Hypar_apps.Adpcm.timing_constraint in
  let run s =
    run (adpcm_platform ()) ~timing_constraint
      p.Flow.cdfg p.Flow.profile s
  in
  let per_block = run Baselines.Paper_greedy in
  let whole_loop = run Baselines.Loop_greedy in
  Alcotest.(check bool) "both met" true
    (per_block.Baselines.met && whole_loop.Baselines.met);
  Alcotest.(check bool)
    (Printf.sprintf "loop greedy final %d < per-block final %d"
       whole_loop.Baselines.t_total per_block.Baselines.t_total)
    true
    (whole_loop.Baselines.t_total < per_block.Baselines.t_total);
  Alcotest.(check bool) "fewer evaluations" true
    (whole_loop.Baselines.evaluations <= per_block.Baselines.evaluations)

let test_loop_greedy_single_block_loops () =
  (* on single-block kernels, loop greedy degenerates to per-loop = per
     block and still converges *)
  let p = Lazy.force prepared in
  let timing_constraint = budget p in
  let r =
    run (platform ()) ~timing_constraint p.Flow.cdfg p.Flow.profile
      Baselines.Loop_greedy
  in
  Alcotest.(check bool) "met" true r.Baselines.met

let extra_suite =
  [
    Alcotest.test_case "loop greedy on ADPCM" `Quick test_loop_greedy_on_branchy_kernel;
    Alcotest.test_case "loop greedy degenerate" `Quick test_loop_greedy_single_block_loops;
  ]

let suite = suite @ extra_suite
