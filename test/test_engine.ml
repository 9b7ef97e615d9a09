(* Unit tests for the partitioning engine (the Figure-2 flow). *)

module Ir = Hypar_ir
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform
module Flow = Hypar_core.Flow
module Fpga = Hypar_finegrain.Fpga
module Cgc = Hypar_coarsegrain.Cgc

let platform ?(area = 1500) ?(cgcs = 2) () =
  Platform.make ~fpga:(Fpga.make ~area ()) ~cgc:(Cgc.two_by_two cgcs) ()

let hot_loop_src = {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 5000; i = i + 1) {
    s = s + i * i + (i >> 1);
  }
  out[0] = s;
}
|}

let prepared_hot = lazy (Flow.prepare ~name:"hot" hot_loop_src)

let test_early_exit () =
  (* a huge budget is met by the all-FPGA mapping: no kernels move *)
  let r =
    Flow.partition (platform ()) ~timing_constraint:1_000_000_000
      (Lazy.force prepared_hot)
  in
  Alcotest.(check bool) "met" true (Engine.met r);
  (match r.Engine.status with
  | Engine.Met_without_partitioning -> ()
  | Engine.Met_after _ | Engine.Infeasible -> Alcotest.fail "expected early exit");
  Alcotest.(check (list int)) "nothing moved" [] r.Engine.moved;
  Alcotest.(check int) "no steps" 0 (List.length r.Engine.steps)

let test_moves_hot_kernel () =
  let prepared = Lazy.force prepared_hot in
  let all_fine =
    (Flow.partition (platform ()) ~timing_constraint:max_int prepared)
      .Engine.initial
  in
  let budget = all_fine.Engine.t_total / 3 in
  let r = Flow.partition (platform ()) ~timing_constraint:budget prepared in
  Alcotest.(check bool) "met by moving the loop" true (Engine.met r);
  (match r.Engine.moved with
  | [ moved ] ->
    let entry = r.Engine.analysis.Hypar_analysis.Kernel.entries.(moved) in
    Alcotest.(check int) "moved block ran 5000 times" 5000
      entry.Hypar_analysis.Kernel.exec_freq
  | l -> Alcotest.failf "expected a single move, got %d" (List.length l));
  Alcotest.(check bool) "total decreased" true
    (r.Engine.final.Engine.t_total < all_fine.Engine.t_total)

let test_eq2_consistency () =
  let prepared = Lazy.force prepared_hot in
  let r = Flow.partition (platform ()) ~timing_constraint:1 prepared in
  let check_times (x : Engine.times) =
    Alcotest.(check int) "Eq. 2" x.Engine.t_total
      (x.Engine.t_fpga + x.Engine.t_coarse + x.Engine.t_comm)
  in
  check_times r.Engine.initial;
  List.iter (fun (s : Engine.step) -> check_times s.Engine.times) r.Engine.steps

let test_infeasible () =
  let prepared = Lazy.force prepared_hot in
  let r = Flow.partition (platform ()) ~timing_constraint:1 prepared in
  Alcotest.(check bool) "cannot meet 1 cycle" false (Engine.met r);
  (match r.Engine.status with
  | Engine.Infeasible -> ()
  | Engine.Met_without_partitioning | Engine.Met_after _ ->
    Alcotest.fail "expected infeasible");
  (* every kernel was tried *)
  Alcotest.(check int) "all kernels moved"
    (List.length r.Engine.analysis.Hypar_analysis.Kernel.kernels)
    (List.length r.Engine.moved + List.length r.Engine.skipped)

let test_greedy_order_follows_weights () =
  let prepared = Lazy.force prepared_hot in
  let r = Flow.partition (platform ()) ~timing_constraint:1 prepared in
  let weights =
    List.map
      (fun (s : Engine.step) -> s.Engine.kernel.Hypar_analysis.Kernel.total_weight)
      r.Engine.steps
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "steps follow decreasing Eq.1 weight" true
    (decreasing weights)

let test_t_fpga_decreases_monotonically () =
  let prepared = Lazy.force prepared_hot in
  let r = Flow.partition (platform ()) ~timing_constraint:1 prepared in
  let rec check prev = function
    | (s : Engine.step) :: rest ->
      Alcotest.(check bool) "t_fpga never grows" true
        (s.Engine.times.Engine.t_fpga <= prev);
      check s.Engine.times.Engine.t_fpga rest
    | [] -> ()
  in
  check r.Engine.initial.Engine.t_fpga r.Engine.steps

let test_division_kernels_skipped () =
  let prepared =
    Flow.prepare ~name:"divloop"
      {|
int out[1];
int in[1];
void main() {
  int s = 0;
  int i;
  for (i = 1; i < 2000; i = i + 1) {
    s = s + in[0] / i;
  }
  out[0] = s;
}
|}
      ~inputs:[ ("in", [| 1000 |]) ]
  in
  let r = Flow.partition (platform ()) ~timing_constraint:1 prepared in
  Alcotest.(check bool) "the division loop was skipped" true
    (List.exists
       (fun (_, reason) -> reason = Engine.Not_cgc_executable)
       r.Engine.skipped);
  (* skipped blocks never appear in the moved set *)
  List.iter
    (fun (b, _) ->
      Alcotest.(check bool) "not moved" false (List.mem b r.Engine.moved))
    r.Engine.skipped

let test_max_moves () =
  let prepared = Lazy.force prepared_hot in
  let r = Engine.run ~max_moves:0 (platform ()) ~timing_constraint:1
      prepared.Flow.cdfg prepared.Flow.profile in
  Alcotest.(check int) "no moves allowed" 0 (List.length r.Engine.moved)

let test_comm_pricing_ablation () =
  let prepared = Lazy.force prepared_hot in
  let transition =
    Engine.run ~comm_pricing:`Transition (platform ()) ~timing_constraint:1
      prepared.Flow.cdfg prepared.Flow.profile
  in
  let per_inv =
    Engine.run ~comm_pricing:`Per_invocation (platform ()) ~timing_constraint:1
      prepared.Flow.cdfg prepared.Flow.profile
  in
  (* with the same moved set, per-invocation pricing is pessimistic *)
  Alcotest.(check bool) "per-invocation costs at least as much" true
    (per_inv.Engine.final.Engine.t_comm >= transition.Engine.final.Engine.t_comm)

let test_reduction_percent () =
  let prepared = Lazy.force prepared_hot in
  let r = Flow.partition (platform ()) ~timing_constraint:1 prepared in
  let expected =
    100.0
    *. float_of_int (r.Engine.initial.Engine.t_total - r.Engine.final.Engine.t_total)
    /. float_of_int r.Engine.initial.Engine.t_total
  in
  Alcotest.(check (float 0.001)) "reduction formula" expected
    (Engine.reduction_percent r)

let test_area_effect_on_initial () =
  (* the paper's §4 observation: larger A_FPGA, fewer initial cycles *)
  let prepared = (fun () -> Hypar_apps.Ofdm.prepared ()) () in
  let at area =
    (Flow.partition (platform ~area ()) ~timing_constraint:1 prepared)
      .Engine.initial.Engine.t_total
  in
  Alcotest.(check bool) "initial(1500) > initial(5000)" true (at 1500 > at 5000)

let suite =
  [
    Alcotest.test_case "early exit" `Quick test_early_exit;
    Alcotest.test_case "moves hot kernel" `Quick test_moves_hot_kernel;
    Alcotest.test_case "Eq. 2 consistency" `Quick test_eq2_consistency;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "greedy order" `Quick test_greedy_order_follows_weights;
    Alcotest.test_case "t_fpga monotone" `Quick test_t_fpga_decreases_monotonically;
    Alcotest.test_case "division kernels skipped" `Quick test_division_kernels_skipped;
    Alcotest.test_case "max moves" `Quick test_max_moves;
    Alcotest.test_case "comm pricing ablation" `Quick test_comm_pricing_ablation;
    Alcotest.test_case "reduction percent" `Quick test_reduction_percent;
    Alcotest.test_case "area effect on initial cycles" `Quick test_area_effect_on_initial;
  ]

let test_loop_granularity () =
  (* the ADPCM loop spans many blocks: loop granularity moves them as a
     unit and lands far below the per-block result *)
  let prepared = Hypar_apps.Adpcm.prepared () in
  let pl = platform () in
  let timing_constraint = Hypar_apps.Adpcm.timing_constraint in
  let block =
    Engine.run ~granularity:`Block pl ~timing_constraint prepared.Flow.cdfg
      prepared.Flow.profile
  in
  let loop =
    Engine.run ~granularity:`Loop pl ~timing_constraint prepared.Flow.cdfg
      prepared.Flow.profile
  in
  Alcotest.(check bool) "both met" true (Engine.met block && Engine.met loop);
  Alcotest.(check bool)
    (Printf.sprintf "loop granularity wins (%d < %d)"
       loop.Engine.final.Engine.t_total block.Engine.final.Engine.t_total)
    true
    (loop.Engine.final.Engine.t_total < block.Engine.final.Engine.t_total);
  Alcotest.(check bool) "fewer steps" true
    (List.length loop.Engine.steps <= List.length block.Engine.steps)

let test_loop_granularity_same_on_single_block_loops () =
  (* when every loop is a single block, the two granularities coincide *)
  let prepared = Lazy.force prepared_hot in
  let pl = platform () in
  let block =
    Engine.run ~granularity:`Block pl ~timing_constraint:1 prepared.Flow.cdfg
      prepared.Flow.profile
  in
  let loop =
    Engine.run ~granularity:`Loop pl ~timing_constraint:1 prepared.Flow.cdfg
      prepared.Flow.profile
  in
  Alcotest.(check (list int)) "same moved set"
    (List.sort compare block.Engine.moved)
    (List.sort compare loop.Engine.moved)

(* At loop granularity a step moves a whole group through [Inc.move] in
   Eq.-1 weight order; [on_cgc] and [moved] list the group in that same
   order, so replaying each step's new blocks by weight through a fresh
   [Inc] reproduces every published moved set and its times. *)
let test_loop_granularity_move_order () =
  let prepared = Hypar_apps.Adpcm.prepared () in
  let cdfg = prepared.Flow.cdfg and profile = prepared.Flow.profile in
  let pl = platform () in
  let r = Engine.run ~granularity:`Loop pl ~timing_constraint:(-1) cdfg profile in
  let rank b =
    let rec go i = function
      | [] -> max_int
      | (k : Hypar_analysis.Kernel.entry) :: rest ->
        if k.block_id = b then i else go (i + 1) rest
    in
    go 0 r.Engine.analysis.Hypar_analysis.Kernel.kernels
  in
  let inc = Engine.Inc.create pl cdfg profile in
  let widest =
    List.fold_left
      (fun (prev, widest) (s : Engine.step) ->
        let added =
          List.filter (fun b -> not (List.mem b prev)) s.Engine.on_cgc
          |> List.sort (fun a b -> compare (rank a) (rank b))
        in
        List.iter (Engine.Inc.move inc) added;
        Alcotest.(check (list int))
          (Printf.sprintf "step %d: on_cgc in Inc's move order" s.step_index)
          (Engine.Inc.moved inc) s.Engine.on_cgc;
        Alcotest.(check int)
          (Printf.sprintf "step %d: t_total" s.step_index)
          (Engine.Inc.times inc).Engine.t_total s.Engine.times.Engine.t_total;
        (s.Engine.on_cgc, max widest (List.length added)))
      ([], 0) r.Engine.steps
    |> snd
  in
  Alcotest.(check bool) "some step moves a multi-block loop" true (widest > 1);
  Alcotest.(check (list int)) "moved in Inc's move order"
    (Engine.Inc.moved inc) r.Engine.moved

let granularity_suite =
  [
    Alcotest.test_case "loop groups move in weight order" `Quick
      test_loop_granularity_move_order;
    Alcotest.test_case "loop granularity on ADPCM" `Quick test_loop_granularity;
    Alcotest.test_case "granularities coincide" `Quick test_loop_granularity_same_on_single_block_loops;
  ]

(* --- incremental recharacterisation: Inc vs the full recompute ---

   Engine.run now maintains its times by delta update (Engine.Inc); these
   tests replay full trajectories and require every published step to
   equal the from-scratch Engine.evaluate pricing of the same moved set —
   on the benchmark applications, on seeded random platforms, on degraded
   (faulted) platforms, and through Inc's own move/unmove/reset API. *)

let check_times_eq what (full : Engine.times) (inc : Engine.times) =
  if full <> inc then
    Alcotest.failf
      "%s: full (fpga=%d cgc=%d coarse=%d comm=%d total=%d) <> incremental \
       (fpga=%d cgc=%d coarse=%d comm=%d total=%d)"
      what full.Engine.t_fpga full.t_coarse_cgc full.t_coarse full.t_comm
      full.t_total inc.Engine.t_fpga inc.t_coarse_cgc inc.t_coarse inc.t_comm
      inc.t_total

let check_trajectory ?comm_pricing ?cgc_pipelining ?granularity what pl
    (prepared : Flow.prepared) ~timing_constraint =
  let r =
    Engine.run ?comm_pricing ?cgc_pipelining ?granularity pl ~timing_constraint
      prepared.Flow.cdfg prepared.Flow.profile
  in
  let full =
    Engine.evaluate ?comm_pricing ?cgc_pipelining pl prepared.Flow.cdfg
      prepared.Flow.profile
  in
  check_times_eq (what ^ ": initial") (full []) r.Engine.initial;
  List.iter
    (fun (s : Engine.step) ->
      check_times_eq
        (Printf.sprintf "%s: step %d" what s.Engine.step_index)
        (full s.Engine.on_cgc) s.Engine.times)
    r.Engine.steps;
  check_times_eq (what ^ ": final") (full r.Engine.moved) r.Engine.final;
  r

let test_incremental_apps () =
  List.iter
    (fun (name, prepared) ->
      ignore
        (check_trajectory name (platform ()) prepared ~timing_constraint:1))
    [
      ("ofdm", Hypar_apps.Ofdm.prepared ());
      ("jpeg", Hypar_apps.Jpeg.prepared ());
      ("sobel", Hypar_apps.Sobel.prepared ());
      ("adpcm", Hypar_apps.Adpcm.prepared ());
    ]

let test_incremental_loop_granularity () =
  (* loop granularity moves several blocks per step — the delta path must
     price multi-block steps exactly like the full recompute *)
  let prepared = Hypar_apps.Adpcm.prepared () in
  ignore
    (check_trajectory ~granularity:`Loop "adpcm loops" (platform ()) prepared
       ~timing_constraint:Hypar_apps.Adpcm.timing_constraint)

let lcg seed =
  let state = ref (if seed = 0 then 1 else seed) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

let test_incremental_random_platforms () =
  let prepared = Lazy.force prepared_hot in
  for seed = 1 to 12 do
    let next = lcg (seed * 7919) in
    let pl =
      Platform.make
        ~clock_ratio:(1 + next 4)
        ~fpga:(Fpga.make ~area:(200 + next 4000) ())
        ~cgc:
          (Cgc.make ~cgcs:(1 + next 4) ~rows:(1 + next 4) ~cols:(1 + next 4)
             ())
        ()
    in
    let comm_pricing = if next 2 = 0 then `Transition else `Per_invocation in
    let cgc_pipelining = next 2 = 1 in
    ignore
      (check_trajectory ~comm_pricing ~cgc_pipelining
         (Printf.sprintf "random platform %d" seed)
         pl prepared
         ~timing_constraint:(1 + next 100_000))
  done

let test_incremental_degraded () =
  let prepared = Hypar_apps.Ofdm.prepared () in
  let spec =
    {
      Hypar_resilience.Fault.seed = 42;
      faults =
        [
          Hypar_resilience.Fault.Dead_cgc 0;
          Hypar_resilience.Fault.Area_loss (`Percent 30);
          Hypar_resilience.Fault.Comm_slowdown 150;
          Hypar_resilience.Fault.Dead_node
            { cgc = 1; row = 0; col = 1; unit_kind = Hypar_resilience.Fault.Mult };
        ];
    }
  in
  match Hypar_resilience.Degrade.apply ~strict:false spec (platform ()) with
  | Error e -> Alcotest.fail e
  | Ok pl ->
    ignore (check_trajectory "degraded" pl prepared ~timing_constraint:1)

let test_inc_move_unmove_reset () =
  let prepared = Lazy.force prepared_hot in
  let pl = platform () in
  let inc = Engine.Inc.create pl prepared.Flow.cdfg prepared.Flow.profile in
  let full = Engine.evaluate pl prepared.Flow.cdfg prepared.Flow.profile in
  let initial = Engine.Inc.times inc in
  check_times_eq "all-FPGA" (full []) initial;
  (* replay the engine's own trajectory move by move, then unwind it *)
  let r =
    Engine.run pl ~timing_constraint:1 prepared.Flow.cdfg prepared.Flow.profile
  in
  Alcotest.(check bool) "trajectory is non-trivial" true (r.Engine.moved <> []);
  List.iteri
    (fun i b ->
      Engine.Inc.move inc b;
      check_times_eq
        (Printf.sprintf "after move %d" (i + 1))
        (full (Engine.Inc.moved inc))
        (Engine.Inc.times inc))
    r.Engine.moved;
  Alcotest.(check (list int)) "moved order" r.Engine.moved
    (Engine.Inc.moved inc);
  List.iter
    (fun b ->
      Engine.Inc.unmove inc b;
      check_times_eq "during unwind"
        (full (Engine.Inc.moved inc))
        (Engine.Inc.times inc))
    (List.rev r.Engine.moved);
  check_times_eq "unwound to initial" initial (Engine.Inc.times inc);
  (* re-move everything, then reset jumps straight back *)
  List.iter (fun b -> Engine.Inc.move inc b) r.Engine.moved;
  Engine.Inc.reset inc;
  check_times_eq "reset" initial (Engine.Inc.times inc);
  match r.Engine.moved with
  | [] -> ()
  | b :: _ -> (
    Engine.Inc.move inc b;
    (match Engine.Inc.move inc b with
    | () -> Alcotest.fail "double move should raise"
    | exception Invalid_argument _ -> ());
    Engine.Inc.unmove inc b;
    match Engine.Inc.unmove inc b with
    | () -> Alcotest.fail "unmove of an unmoved block should raise"
    | exception Invalid_argument _ -> ())

let incremental_suite =
  [
    Alcotest.test_case "incremental matches full on apps" `Quick
      test_incremental_apps;
    Alcotest.test_case "incremental at loop granularity" `Quick
      test_incremental_loop_granularity;
    Alcotest.test_case "incremental on random platforms" `Quick
      test_incremental_random_platforms;
    Alcotest.test_case "incremental on degraded platforms" `Quick
      test_incremental_degraded;
    Alcotest.test_case "Inc move/unmove/reset" `Quick
      test_inc_move_unmove_reset;
  ]

(* ---- the status key ----------------------------------------------------- *)

let status_gen =
  QCheck.Gen.(
    oneof
      [
        return Engine.Met_without_partitioning;
        return Engine.Infeasible;
        map
          (fun n -> Engine.Met_after n)
          (oneof [ int_range 1 20; int_range 1 max_int ]);
      ])

let prop_status_key_inverse =
  QCheck.Test.make ~name:"status: of_key (key s) = Some s" ~count:500
    (QCheck.make ~print:Engine.status_key status_gen) (fun s ->
      Engine.status_of_key (Engine.status_key s) = Some s)

(* near misses of the key: signs, hex and underscore digits, leading
   zeros, spaces and empty counts after the "met-after-" prefix *)
let key_like_gen =
  QCheck.Gen.(
    oneof
      [
        map Engine.status_key status_gen;
        map
          (fun t -> "met-after-" ^ t)
          (string_size
             ~gen:(oneofl [ '0'; '1'; '7'; '9'; '-'; '+'; 'x'; 'F'; '_'; ' ' ])
             (int_range 0 6));
        string_printable;
      ])

let prop_status_key_accepts_only_keys =
  QCheck.Test.make ~name:"status: an accepted key re-renders to itself"
    ~count:1000 (QCheck.make ~print:(Printf.sprintf "%S") key_like_gen)
    (fun k ->
      match Engine.status_of_key k with
      | Some s -> Engine.status_key s = k
      | None -> true)

let status_suite =
  [
    QCheck_alcotest.to_alcotest prop_status_key_inverse;
    QCheck_alcotest.to_alcotest prop_status_key_accepts_only_keys;
  ]

let suite = suite @ granularity_suite @ incremental_suite @ status_suite
