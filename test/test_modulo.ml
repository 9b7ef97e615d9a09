(* Unit tests for modulo scheduling (CGC loop pipelining). *)

module Ir = Hypar_ir
module Cgc = Hypar_coarsegrain.Cgc
module Modulo = Hypar_coarsegrain.Modulo
module Engine = Hypar_core.Engine
module Flow = Hypar_core.Flow
module Platform = Hypar_core.Platform

let cgc2 = Cgc.two_by_two 2

(* an accumulator kernel: s and i are loop-carried *)
let carried_dfg () =
  let b = Ir.Builder.create () in
  Ir.Builder.declare_array b "x" 64;
  let s = Ir.Builder.fresh_var b "s" in
  let i = Ir.Builder.fresh_var b "i" in
  let x = Ir.Builder.load b "x0" ~arr:"x" (Ir.Builder.var i) in
  let m = Ir.Builder.mul b "m" (Ir.Builder.var x) (Ir.Builder.var x) in
  Ir.Builder.emit b
    (Ir.Instr.Bin { dst = s; op = Ir.Types.Add; a = Var s; b = Var m });
  Ir.Builder.emit b
    (Ir.Instr.Bin { dst = i; op = Ir.Types.Add; a = Var i; b = Imm 1 });
  Ir.Builder.finish_block b ~label:"body" ~term:(Ir.Block.Return None);
  let cdfg = Ir.Builder.cdfg b in
  let dfg = Ir.Cdfg.dfg cdfg 0 in
  (dfg, s, i)

let test_bounds () =
  let dfg, s, i = carried_dfg () in
  match Modulo.analyse cgc2 dfg ~carried:[ s; i ] with
  | Some m ->
    Alcotest.(check bool) "II >= ResMII" true (m.Modulo.ii >= m.Modulo.res_mii);
    Alcotest.(check bool) "II <= latency" true (m.Modulo.ii <= m.Modulo.latency);
    Alcotest.(check bool) "ResMII at least 1" true (m.Modulo.res_mii >= 1);
    Alcotest.(check int) "both scalars recur" 2 (List.length m.Modulo.recurrences)
  | None -> Alcotest.fail "expected analysis"

let test_wide_kernel_pipelines_well () =
  (* many independent ops: ResMII small, latency larger -> II < latency *)
  let b = Ir.Builder.create () in
  let i = Ir.Builder.fresh_var b "i" in
  let prev = ref (Ir.Builder.var i) in
  for _ = 1 to 12 do
    let v = Ir.Builder.bin b Ir.Types.Add "t" !prev (Ir.Builder.imm 1) in
    prev := Ir.Builder.var v
  done;
  Ir.Builder.emit b
    (Ir.Instr.Bin { dst = i; op = Ir.Types.Add; a = Var i; b = Imm 1 });
  Ir.Builder.finish_block b ~label:"body" ~term:(Ir.Block.Return None);
  let cdfg = Ir.Builder.cdfg b in
  let dfg = Ir.Cdfg.dfg cdfg 0 in
  match Modulo.analyse cgc2 dfg ~carried:[ i ] with
  | Some m ->
    Alcotest.(check bool)
      (Printf.sprintf "II %d < latency %d" m.Modulo.ii m.Modulo.latency)
      true
      (m.Modulo.ii < m.Modulo.latency)
  | None -> Alcotest.fail "expected analysis"

let test_division_unsupported () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.fresh_var b "x" in
  Ir.Builder.emit b
    (Ir.Instr.Div { dst = Ir.Builder.fresh_var b "q"; a = Var x; b = Imm 2 });
  Ir.Builder.finish_block b ~label:"body" ~term:(Ir.Block.Return None);
  let cdfg = Ir.Builder.cdfg b in
  let dfg = Ir.Cdfg.dfg cdfg 0 in
  Alcotest.(check bool) "unsupported" true (Modulo.analyse cgc2 dfg ~carried:[] = None)

let prepared = lazy (Flow.prepare ~name:"acc" {|
int out[1];
int x[64];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 4096; i++) {
    s += x[i & 63] * x[i & 63] + (s >> 3);
  }
  out[0] = s;
}
|})

let test_engine_pipelining_helps () =
  let p = Lazy.force prepared in
  let pl = List.hd (Platform.paper_configs ()) in
  let run pipelined =
    Engine.run ~cgc_pipelining:pipelined ~max_moves:(Ir.Cdfg.block_count p.Flow.cdfg)
      pl ~timing_constraint:1 p.Flow.cdfg p.Flow.profile
  in
  let flat = run false and pipe = run true in
  Alcotest.(check bool) "same moved kernels" true
    (flat.Engine.moved = pipe.Engine.moved);
  Alcotest.(check bool)
    (Printf.sprintf "pipelined CGC cycles %d <= flat %d"
       pipe.Engine.final.Engine.t_coarse_cgc flat.Engine.final.Engine.t_coarse_cgc)
    true
    (pipe.Engine.final.Engine.t_coarse_cgc <= flat.Engine.final.Engine.t_coarse_cgc);
  Alcotest.(check bool) "total no worse" true
    (pipe.Engine.final.Engine.t_total <= flat.Engine.final.Engine.t_total)

let test_non_self_loop_blocks_unaffected () =
  (* a straight-line program has no self-looping block: pipelining is a
     no-op *)
  let p = Flow.prepare ~name:"straight" {|
int out[1];
void main() { out[0] = 1 + 2 * 3; }
|} in
  let pl = List.hd (Platform.paper_configs ()) in
  let e0 = Engine.evaluate ~cgc_pipelining:false pl p.Flow.cdfg p.Flow.profile in
  let e1 = Engine.evaluate ~cgc_pipelining:true pl p.Flow.cdfg p.Flow.profile in
  Alcotest.(check int) "identical totals" (e0 []).Engine.t_total (e1 []).Engine.t_total

let suite =
  [
    Alcotest.test_case "II bounds" `Quick test_bounds;
    Alcotest.test_case "wide kernels pipeline" `Quick test_wide_kernel_pipelines_well;
    Alcotest.test_case "division unsupported" `Quick test_division_unsupported;
    Alcotest.test_case "engine pipelining helps" `Quick test_engine_pipelining_helps;
    Alcotest.test_case "no self-loop, no effect" `Quick test_non_self_loop_blocks_unaffected;
  ]
