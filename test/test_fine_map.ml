(* Unit tests for the fine-grain cycle model (Eq. 4 and the per-level
   group cost). *)

module Ir = Hypar_ir
module Fpga = Hypar_finegrain.Fpga
module Fine_map = Hypar_finegrain.Fine_map

let big_fpga = Fpga.make ~area:1_000_000 ~reconfig_cycles:10 ()

let test_chain_cycles () =
  (* a 4-deep chain of ALU ops on one partition: 4 level groups x 1 cycle *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let prev = ref (Ir.Builder.imm 1) in
        for _ = 1 to 4 do
          let v = Ir.Builder.bin b Ir.Types.Add "t" !prev (Ir.Builder.imm 1) in
          prev := Ir.Builder.var v
        done)
  in
  let m = Fine_map.map_dfg big_fpga dfg in
  Alcotest.(check int) "1 partition" 1 m.Fine_map.partition_count;
  Alcotest.(check int) "4 compute cycles" 4 m.Fine_map.compute_cycles;
  Alcotest.(check int) "reconfig charged once" 10 m.Fine_map.reconfig_cycles;
  Alcotest.(check int) "total" 14 m.Fine_map.cycles_per_iteration

let test_parallel_ops_share_cycle () =
  (* 6 independent ALU ops in one partition: a single level group *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        for _ = 1 to 6 do
          ignore (Ir.Builder.bin b Ir.Types.Add "t" (Ir.Builder.var x) (Ir.Builder.imm 1))
        done)
  in
  let m = Fine_map.map_dfg big_fpga dfg in
  Alcotest.(check int) "one cycle for the level" 1 m.Fine_map.compute_cycles

let test_mul_dominates_level () =
  (* a level mixing ALU and MUL costs the MUL delay *)
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        ignore (Ir.Builder.bin b Ir.Types.Add "t" (Ir.Builder.var x) (Ir.Builder.imm 1));
        ignore (Ir.Builder.mul b "u" (Ir.Builder.var x) (Ir.Builder.var x)))
  in
  let m = Fine_map.map_dfg big_fpga dfg in
  Alcotest.(check int) "mul delay (2) dominates" 2 m.Fine_map.compute_cycles

let test_partition_split_costs_more () =
  (* the same level split across two partitions costs two groups *)
  let wide =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        for _ = 1 to 8 do
          ignore (Ir.Builder.bin b Ir.Types.Add "t" (Ir.Builder.var x) (Ir.Builder.imm 1))
        done)
  in
  let small = Fpga.make ~area:256 ~reconfig_cycles:10 () in
  let m_small = Fine_map.map_dfg small wide in
  let m_big = Fine_map.map_dfg big_fpga wide in
  Alcotest.(check bool) "small device has more partitions" true
    (m_small.Fine_map.partition_count > m_big.Fine_map.partition_count);
  Alcotest.(check bool) "small device needs more cycles" true
    (m_small.Fine_map.cycles_per_iteration > m_big.Fine_map.cycles_per_iteration)

let test_app_cycles_eq4 () =
  let cdfg =
    Hypar_minic.Driver.compile_exn {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 50; i = i + 1) { s = s + i; }
  out[0] = s;
}
|}
  in
  let run = Hypar_profiling.Interp.run cdfg in
  let freq i = run.Hypar_profiling.Interp.exec_freq.(i) in
  let times =
    Hypar_core.Engine.evaluate
      (Hypar_core.Platform.make ~fpga:big_fpga
         ~cgc:(Hypar_coarsegrain.Cgc.two_by_two 2) ())
      cdfg
      (Hypar_profiling.Profile.of_result cdfg run)
  in
  (* Eq. 4 check: the engine's all-FPGA t_FPGA, recomputed by hand from
     the per-block mappings *)
  let expected =
    List.fold_left
      (fun acc i ->
        let m = Fine_map.map_block big_fpga cdfg i in
        acc + (m.Fine_map.cycles_per_iteration * freq i))
      0
      (Ir.Cdfg.block_ids cdfg)
  in
  Alcotest.(check int) "Eq. 4" expected (times []).Hypar_core.Engine.t_fpga;
  let nothing = times (Ir.Cdfg.block_ids cdfg) in
  Alcotest.(check int) "empty selection is 0 cycles" 0 nothing.Hypar_core.Engine.t_fpga

let suite =
  [
    Alcotest.test_case "chain cycles" `Quick test_chain_cycles;
    Alcotest.test_case "parallel ops share a cycle" `Quick test_parallel_ops_share_cycle;
    Alcotest.test_case "mul dominates its level" `Quick test_mul_dominates_level;
    Alcotest.test_case "partition split costs more" `Quick test_partition_split_costs_more;
    Alcotest.test_case "Eq. 4 application cycles" `Quick test_app_cycles_eq4;
  ]
