(* Unit tests for the coarse-grain mapping layer (Eq. 3). *)

module Ir = Hypar_ir
module Cgc = Hypar_coarsegrain.Cgc
module Coarse_map = Hypar_coarsegrain.Coarse_map
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp
module Engine = Hypar_core.Engine

let cgc2 = Cgc.two_by_two 2

(* The engine's Eq.-2 times of [cdfg] on an FPGA and [cgc2], pricing any
   moved set *)
let engine_times ?inputs cdfg =
  let run = Interp.run ?inputs cdfg in
  let platform =
    Hypar_core.Platform.make ~fpga:(Hypar_finegrain.Fpga.make ~area:1500 ()) ~cgc:cgc2 ()
  in
  (run, Engine.evaluate platform cdfg (Hypar_profiling.Profile.of_result cdfg run))

let test_latency_minimum_one () =
  let dfg =
    Ir.Builder.dfg_of (fun b -> ignore (Ir.Builder.mov b "t" (Ir.Builder.imm 1)))
  in
  match Coarse_map.map_dfg cgc2 dfg with
  | Some m -> Alcotest.(check int) "all-moves block still takes a cycle" 1 m.Coarse_map.latency
  | None -> Alcotest.fail "expected mapping"

let test_unmappable_division () =
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        Ir.Builder.emit b
          (Ir.Instr.Div { dst = Ir.Builder.fresh_var b "q"; a = Var x; b = Imm 3 }))
  in
  Alcotest.(check bool) "division blocks are unmappable" true
    (Coarse_map.map_dfg cgc2 dfg = None)

let loop_src = {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 30; i = i + 1) { s = s + i * i; }
  out[0] = s;
}
|}

let test_app_cycles_eq3 () =
  let cdfg = Driver.compile_exn loop_src in
  let run, times = engine_times cdfg in
  let freq i = run.Interp.exec_freq.(i) in
  let total = (times (Ir.Cdfg.block_ids cdfg)).Engine.t_coarse_cgc in
  let expected =
    List.fold_left
      (fun acc i ->
        match Coarse_map.map_block cgc2 cdfg i with
        | Some m when freq i > 0 -> acc + (m.Coarse_map.latency * freq i)
        | Some _ | None -> acc)
      0 (Ir.Cdfg.block_ids cdfg)
  in
  Alcotest.(check int) "Eq. 3" expected total

let test_app_cycles_rejects_divisions () =
  let cdfg = Driver.compile_exn {|
int out[1];
int in[1];
void main() {
  int s = 1;
  int i;
  for (i = 1; i < 5; i = i + 1) { s = s + in[0] / i; }
  out[0] = s;
}
|} in
  let _, times = engine_times ~inputs:[ ("in", [| 10 |]) ] cdfg in
  match times (Ir.Cdfg.block_ids cdfg) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of division block"

let test_faster_than_sequential () =
  (* CGC latency is never worse than executing nodes one per cycle *)
  for seed = 1 to 6 do
    let dfg = Hypar_apps.Synth.random_dfg ~seed ~nodes:50 () in
    match Coarse_map.map_dfg cgc2 dfg with
    | Some m ->
      Alcotest.(check bool)
        (Printf.sprintf "latency %d <= nodes" m.Coarse_map.latency)
        true
        (m.Coarse_map.latency <= Ir.Dfg.node_count dfg)
    | None -> ()
  done

let test_binding_is_valid () =
  let cdfg = Driver.compile_exn loop_src in
  List.iter
    (fun i ->
      match Coarse_map.map_block cgc2 cdfg i with
      | Some m ->
        Alcotest.(check bool) "binding valid" true
          (Hypar_coarsegrain.Binding.is_valid cgc2 m.Coarse_map.binding)
      | None -> ())
    (Ir.Cdfg.block_ids cdfg)

let suite =
  [
    Alcotest.test_case "minimum latency" `Quick test_latency_minimum_one;
    Alcotest.test_case "unmappable division" `Quick test_unmappable_division;
    Alcotest.test_case "Eq. 3 application cycles" `Quick test_app_cycles_eq3;
    Alcotest.test_case "divisions rejected" `Quick test_app_cycles_rejects_divisions;
    Alcotest.test_case "no worse than sequential" `Quick test_faster_than_sequential;
    Alcotest.test_case "binding validity" `Quick test_binding_is_valid;
  ]
