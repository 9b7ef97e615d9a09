(* Unit tests for the CGC list scheduler: chaining, resource bounds,
   memory ports and rejection of divisions. *)

module Ir = Hypar_ir
module Cgc = Hypar_coarsegrain.Cgc
module Schedule = Hypar_coarsegrain.Schedule

let cgc2 = Cgc.two_by_two 2

(* distinct columns the schedule uses in [cycle] *)
let chains_in_cycle (s : Schedule.t) cycle =
  Array.to_list s.Schedule.placements
  |> List.filter_map (fun (p : Schedule.placement) ->
         if p.cycle = cycle && p.chain >= 0 then Some p.chain else None)
  |> List.sort_uniq compare |> List.length

let test_multiply_add_chains () =
  (* t = a*b; u = t+c — the paper's flagship single-cycle pattern *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let a = Ir.Builder.fresh_var b "a" in
        let c = Ir.Builder.fresh_var b "c" in
        let t = Ir.Builder.mul b "t" (Ir.Builder.var a) (Ir.Builder.var a) in
        ignore (Ir.Builder.bin b Ir.Types.Add "u" (Ir.Builder.var t) (Ir.Builder.var c)))
  in
  let s = Schedule.schedule cgc2 dfg in
  Alcotest.(check int) "multiply-add in one cycle" 1 s.Schedule.makespan;
  Alcotest.(check bool) "valid" true (Schedule.is_valid cgc2 dfg s);
  let p0 = s.Schedule.placements.(0) and p1 = s.Schedule.placements.(1) in
  Alcotest.(check int) "same chain" p0.Schedule.chain p1.Schedule.chain;
  Alcotest.(check int) "depths 1 then 2" 1 p0.Schedule.depth;
  Alcotest.(check int) "depth 2" 2 p1.Schedule.depth

let test_chain_depth_limited () =
  (* a 3-deep dependent chain cannot fit one cycle on 2-row CGCs *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let a = Ir.Builder.fresh_var b "a" in
        let t = Ir.Builder.bin b Ir.Types.Add "t" (Ir.Builder.var a) (Ir.Builder.imm 1) in
        let u = Ir.Builder.bin b Ir.Types.Add "u" (Ir.Builder.var t) (Ir.Builder.imm 2) in
        ignore (Ir.Builder.bin b Ir.Types.Add "v" (Ir.Builder.var u) (Ir.Builder.imm 3)))
  in
  let s = Schedule.schedule cgc2 dfg in
  Alcotest.(check int) "2 cycles for depth 3" 2 s.Schedule.makespan;
  Alcotest.(check bool) "valid" true (Schedule.is_valid cgc2 dfg s)

let test_chain_capacity_limited () =
  (* 9 independent ALU ops on two 2x2 CGCs (8 slots/cycle) need 2 cycles *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        for _ = 1 to 9 do
          ignore (Ir.Builder.bin b Ir.Types.Add "t" (Ir.Builder.var x) (Ir.Builder.imm 1))
        done)
  in
  let s = Schedule.schedule cgc2 dfg in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %d >= 2" s.Schedule.makespan)
    true
    (s.Schedule.makespan >= 2);
  Alcotest.(check bool) "valid" true (Schedule.is_valid cgc2 dfg s);
  (* chains per cycle bounded by 4 *)
  for c = 1 to s.Schedule.makespan do
    Alcotest.(check bool) "chain bound" true (chains_in_cycle s c <= Cgc.chains cgc2)
  done

let test_more_cgcs_help_wide_dfgs () =
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        for _ = 1 to 24 do
          ignore (Ir.Builder.bin b Ir.Types.Add "t" (Ir.Builder.var x) (Ir.Builder.imm 1))
        done)
  in
  let m k = (Schedule.schedule (Cgc.two_by_two k) dfg).Schedule.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "three CGCs at least as fast (%d vs %d)" (m 3) (m 2))
    true
    (m 3 <= m 2);
  Alcotest.(check int) "two 2x2: 24 ops / 8 slots" 3 (m 2);
  Alcotest.(check int) "three 2x2: 24 ops / 12 slots" 2 (m 3)

let test_memory_ports () =
  (* 4 independent loads on 2 ports take 2 cycles *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        for i = 0 to 3 do
          ignore (Ir.Builder.load b "t" ~arr:"m" (Ir.Builder.imm i))
        done)
  in
  let s = Schedule.schedule cgc2 dfg in
  Alcotest.(check int) "2 cycles on 2 ports" 2 s.Schedule.makespan;
  let one_port = Cgc.make ~mem_ports:1 ~cgcs:2 ~rows:2 ~cols:2 () in
  let s1 = Schedule.schedule one_port dfg in
  Alcotest.(check int) "4 cycles on 1 port" 4 s1.Schedule.makespan

let test_moves_are_free () =
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let t = Ir.Builder.mov b "t" (Ir.Builder.imm 3) in
        let u = Ir.Builder.mov b "u" (Ir.Builder.var t) in
        ignore (Ir.Builder.bin b Ir.Types.Add "v" (Ir.Builder.var u) (Ir.Builder.imm 1)))
  in
  let s = Schedule.schedule cgc2 dfg in
  Alcotest.(check int) "only the add takes a cycle" 1 s.Schedule.makespan;
  Alcotest.(check int) "mov placed at cycle 0" 0 s.Schedule.placements.(0).Schedule.cycle

let test_division_unsupported () =
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        Ir.Builder.emit b
          (Ir.Instr.Div { dst = Ir.Builder.fresh_var b "q"; a = Var x; b = Imm 2 }))
  in
  Alcotest.(check bool) "supported is false" false (Schedule.supported dfg);
  match Schedule.schedule cgc2 dfg with
  | exception Schedule.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let test_dependences_across_cycles () =
  (* load -> mul -> store must strictly serialise (no chaining through
     memory ops) *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let t = Ir.Builder.load b "t" ~arr:"m" (Ir.Builder.imm 0) in
        let u = Ir.Builder.mul b "u" (Ir.Builder.var t) (Ir.Builder.var t) in
        Ir.Builder.store b ~arr:"m" (Ir.Builder.imm 1) (Ir.Builder.var u))
  in
  let s = Schedule.schedule cgc2 dfg in
  Alcotest.(check int) "3 cycles" 3 s.Schedule.makespan;
  Alcotest.(check bool) "valid" true (Schedule.is_valid cgc2 dfg s)

let test_random_dfgs_valid () =
  for seed = 1 to 10 do
    let dfg = Hypar_apps.Synth.random_dfg ~seed ~nodes:80 () in
    if Schedule.supported dfg then begin
      let s = Schedule.schedule cgc2 dfg in
      if not (Schedule.is_valid cgc2 dfg s) then
        Alcotest.failf "invalid schedule for seed %d" seed;
      (* resource lower bounds: node ops per slot, memory ops per port *)
      let node_ops = ref 0 and mem_ops = ref 0 in
      List.iter
        (fun (nd : Ir.Dfg.node) ->
          match Ir.Instr.op_class nd.instr with
          | Ir.Types.Class_mem -> incr mem_ops
          | Ir.Types.Class_move -> ()
          | Ir.Types.Class_alu | Ir.Types.Class_mul | Ir.Types.Class_div ->
            incr node_ops)
        (Ir.Dfg.nodes dfg);
      let ceil_div a b = (a + b - 1) / b in
      let bound =
        max
          (ceil_div !node_ops (Cgc.node_slots cgc2))
          (ceil_div !mem_ops cgc2.Cgc.mem_ports)
      in
      if s.Schedule.makespan < bound then
        Alcotest.failf "makespan below resource bound for seed %d" seed
    end
  done

let suite =
  [
    Alcotest.test_case "multiply-add chains" `Quick test_multiply_add_chains;
    Alcotest.test_case "chain depth limit" `Quick test_chain_depth_limited;
    Alcotest.test_case "chain capacity limit" `Quick test_chain_capacity_limited;
    Alcotest.test_case "more CGCs help wide DFGs" `Quick test_more_cgcs_help_wide_dfgs;
    Alcotest.test_case "memory ports" `Quick test_memory_ports;
    Alcotest.test_case "moves are free" `Quick test_moves_are_free;
    Alcotest.test_case "division unsupported" `Quick test_division_unsupported;
    Alcotest.test_case "memory serialisation" `Quick test_dependences_across_cycles;
    Alcotest.test_case "random DFGs valid" `Quick test_random_dfgs_valid;
  ]

let test_priority_orders_all_valid () =
  let dfg = Hypar_apps.Synth.random_dfg ~seed:17 ~nodes:90 () in
  QCheck.assume (Schedule.supported dfg);
  List.iter
    (fun priority ->
      let s = Schedule.schedule ~priority cgc2 dfg in
      if not (Schedule.is_valid cgc2 dfg s) then
        Alcotest.fail "priority variant produced invalid schedule")
    [ `Alap; `Asap; `Program ]

let test_alap_no_worse_on_critical_dfg () =
  (* a DFG with one long chain and many leaves: ALAP priority starts the
     chain first and wins (or ties) *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        let prev = ref (Ir.Builder.var x) in
        for _ = 1 to 10 do
          let v = Ir.Builder.mul b "c" !prev !prev in
          prev := Ir.Builder.var v
        done;
        for _ = 1 to 20 do
          ignore (Ir.Builder.bin b Ir.Types.Add "leaf" (Ir.Builder.var x) (Ir.Builder.imm 1))
        done)
  in
  let m priority = (Schedule.schedule ~priority cgc2 dfg).Schedule.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "ALAP %d <= program %d" (m `Alap) (m `Program))
    true
    (m `Alap <= m `Program)

let priority_suite =
  [
    Alcotest.test_case "priority variants valid" `Quick test_priority_orders_all_valid;
    Alcotest.test_case "ALAP wins on critical DFGs" `Quick test_alap_no_worse_on_critical_dfg;
  ]

let suite = suite @ priority_suite
