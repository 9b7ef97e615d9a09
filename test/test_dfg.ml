(* Unit tests for the per-block data-flow graph: dependence edges, ASAP/ALAP
   levelling, live-ins and memory ordering. *)

module Ir = Hypar_ir

(* A chain: t0 = a+1; t1 = t0*2; t2 = t1-3. *)
let chain_dfg () =
  Ir.Builder.dfg_of (fun b ->
      let a = Ir.Builder.fresh_var b "a" in
      let t0 = Ir.Builder.bin b Ir.Types.Add "t0" (Ir.Builder.var a) (Ir.Builder.imm 1) in
      let t1 = Ir.Builder.mul b "t1" (Ir.Builder.var t0) (Ir.Builder.imm 2) in
      ignore (Ir.Builder.bin b Ir.Types.Sub "t2" (Ir.Builder.var t1) (Ir.Builder.imm 3)))

let test_chain_levels () =
  let d = chain_dfg () in
  Alcotest.(check int) "3 nodes" 3 (Ir.Dfg.node_count d);
  Alcotest.(check (list int)) "asap" [ 1; 2; 3 ] (Array.to_list (Ir.Dfg.asap d));
  Alcotest.(check (list int)) "alap" [ 1; 2; 3 ] (Array.to_list (Ir.Dfg.alap d));
  Alcotest.(check (list int)) "zero slack" [ 0; 0; 0 ]
    (Array.to_list (Array.map2 ( - ) (Ir.Dfg.alap d) (Ir.Dfg.asap d)));
  Alcotest.(check int) "max level" 3 (Ir.Dfg.max_level d)

let test_parallel_levels () =
  (* Two independent ops then a combiner: diamond of depth 2. *)
  let d =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        let t0 = Ir.Builder.bin b Ir.Types.Add "t0" (Ir.Builder.var x) (Ir.Builder.imm 1) in
        let t1 = Ir.Builder.bin b Ir.Types.Sub "t1" (Ir.Builder.var x) (Ir.Builder.imm 2) in
        ignore (Ir.Builder.bin b Ir.Types.And "t2" (Ir.Builder.var t0) (Ir.Builder.var t1)))
  in
  Alcotest.(check (list int)) "asap" [ 1; 1; 2 ] (Array.to_list (Ir.Dfg.asap d));
  Alcotest.(check (list int)) "level 1 nodes" [ 0; 1 ] (Fine_reference.nodes_at_level d 1);
  Alcotest.(check (list int)) "level 2 nodes" [ 2 ] (Fine_reference.nodes_at_level d 2)

let test_war_waw_edges () =
  (* x = a + 1 (def x); y = x + 1 (use x); x = 2 (WAW with def1, WAR with use) *)
  let d =
    Ir.Builder.dfg_of (fun b ->
        let a = Ir.Builder.fresh_var b "a" in
        let x = Ir.Builder.fresh_var b "x" in
        Ir.Builder.emit b
          (Ir.Instr.Bin { dst = x; op = Ir.Types.Add; a = Var a; b = Imm 1 });
        ignore (Ir.Builder.bin b Ir.Types.Add "y" (Ir.Builder.var x) (Ir.Builder.imm 1));
        Ir.Builder.emit b (Ir.Instr.Mov { dst = x; src = Imm 2 }))
  in
  (* node 2 (redefinition of x) must come after node 0 (WAW) and node 1 (WAR) *)
  Alcotest.(check (list int)) "preds of redefinition" [ 0; 1 ] (Ir.Dfg.preds d 2);
  Alcotest.(check int) "asap of redefinition" 3 (Ir.Dfg.asap d).(2)

let test_memory_edges () =
  (* store m[0]; load m[1]; store m[2]  — load depends on first store,
     second store depends on first store and the load. *)
  let d =
    Ir.Builder.dfg_of (fun b ->
        Ir.Builder.store b ~arr:"m" (Ir.Builder.imm 0) (Ir.Builder.imm 1);
        ignore (Ir.Builder.load b "t" ~arr:"m" (Ir.Builder.imm 1));
        Ir.Builder.store b ~arr:"m" (Ir.Builder.imm 2) (Ir.Builder.imm 3))
  in
  Alcotest.(check (list int)) "load after store" [ 0 ] (Ir.Dfg.preds d 1);
  Alcotest.(check (list int)) "store after store+load" [ 0; 1 ] (Ir.Dfg.preds d 2)

let test_independent_arrays () =
  let d =
    Ir.Builder.dfg_of (fun b ->
        Ir.Builder.store b ~arr:"m1" (Ir.Builder.imm 0) (Ir.Builder.imm 1);
        Ir.Builder.store b ~arr:"m2" (Ir.Builder.imm 0) (Ir.Builder.imm 2))
  in
  Alcotest.(check (list int)) "different arrays are independent" []
    (Ir.Dfg.preds d 1)

let test_live_ins () =
  let d = chain_dfg () in
  let live = Ir.Dfg.live_in_vars d in
  Alcotest.(check (list string)) "only a is live-in" [ "a" ]
    (List.map (fun (v : Ir.Instr.var) -> v.vname) live)

let test_op_counts () =
  let d = chain_dfg () in
  let count c =
    List.length
      (List.filter (fun (nd : Ir.Dfg.node) -> Ir.Instr.op_class nd.instr = c) (Ir.Dfg.nodes d))
  in
  Alcotest.(check int) "alu count" 2 (count Ir.Types.Class_alu);
  Alcotest.(check int) "mul count" 1 (count Ir.Types.Class_mul);
  Alcotest.(check int) "mem count" 0 (count Ir.Types.Class_mem)

let test_empty () =
  let d = Ir.Dfg.of_instrs [] in
  Alcotest.(check int) "no nodes" 0 (Ir.Dfg.node_count d);
  Alcotest.(check int) "max level 0" 0 (Ir.Dfg.max_level d);
  Alcotest.(check bool) "well-formed" true (Ir.Dfg.is_well_formed d)

let test_well_formed () =
  let d = Hypar_apps.Synth.random_dfg ~seed:3 ~nodes:200 () in
  Alcotest.(check bool) "random DFG well-formed" true (Ir.Dfg.is_well_formed d);
  let asap = Ir.Dfg.asap d and alap = Ir.Dfg.alap d in
  Array.iteri
    (fun i a -> if a > alap.(i) then Alcotest.fail "asap exceeds alap")
    asap

let suite =
  [
    Alcotest.test_case "chain levels" `Quick test_chain_levels;
    Alcotest.test_case "parallel levels" `Quick test_parallel_levels;
    Alcotest.test_case "WAR/WAW edges" `Quick test_war_waw_edges;
    Alcotest.test_case "memory ordering edges" `Quick test_memory_edges;
    Alcotest.test_case "independent arrays" `Quick test_independent_arrays;
    Alcotest.test_case "live-ins" `Quick test_live_ins;
    Alcotest.test_case "op counts" `Quick test_op_counts;
    Alcotest.test_case "empty DFG" `Quick test_empty;
    Alcotest.test_case "random DFG well-formed" `Quick test_well_formed;
  ]
