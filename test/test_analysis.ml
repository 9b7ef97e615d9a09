(* Unit tests for the analysis step: weights, Eq. 1, kernel extraction and
   ordering, Table-1 rendering. *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Profile = Hypar_profiling.Profile
module Weights = Hypar_analysis.Weights
module Kernel = Hypar_analysis.Kernel
module Table = Hypar_analysis.Table

let analyse ?weights src =
  let cdfg = Driver.compile_exn src in
  let profile = Profile.of_result cdfg (Profile.run cdfg) in
  (cdfg, Kernel.analyse ?weights cdfg profile)

let two_loops_src = {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 100; i = i + 1) {
    s = s + i * i * i;
  }
  int j;
  for (j = 0; j < 10; j = j + 1) {
    s = s + j;
  }
  out[0] = s;
}
|}

let test_weight_model () =
  let w = Weights.paper in
  Alcotest.(check int) "alu weight" 1 w.Weights.alu;
  Alcotest.(check int) "mul weight" 2 w.Weights.mul;
  let custom = { Weights.paper with mul = 5 } in
  Alcotest.(check int) "override mul" 5 custom.Weights.mul;
  Alcotest.(check int) "alu inherited" 1 custom.Weights.alu

let test_bb_weight () =
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        let t = Ir.Builder.bin b Ir.Types.Add "t" (Ir.Builder.var x) (Ir.Builder.imm 1) in
        let u = Ir.Builder.mul b "u" (Ir.Builder.var t) (Ir.Builder.var t) in
        ignore (Ir.Builder.load b "v" ~arr:"m" (Ir.Builder.var u)))
  in
  (* add(1) + mul(2) + load(1) = 4 *)
  Alcotest.(check int) "weighted sum" 4 (Weights.bb_weight Weights.paper dfg)

let test_eq1_total_weight () =
  let _, analysis = analyse two_loops_src in
  List.iter
    (fun (e : Kernel.entry) ->
      Alcotest.(check int)
        (Printf.sprintf "Eq.1 on BB%d" e.block_id)
        (e.exec_freq * e.bb_weight) e.total_weight)
    analysis.Kernel.kernels

let test_kernel_ordering () =
  let _, analysis = analyse two_loops_src in
  (match analysis.Kernel.kernels with
  | first :: second :: _ ->
    Alcotest.(check bool) "descending order" true
      (first.Kernel.total_weight >= second.Kernel.total_weight);
    Alcotest.(check int) "hot loop runs 100x" 100 first.Kernel.exec_freq
  | _ -> Alcotest.fail "expected at least two kernels");
  let top1 = Kernel.top analysis 1 in
  Alcotest.(check int) "top 1" 1 (List.length top1)

let test_kernels_only_in_loops () =
  let _, analysis = analyse two_loops_src in
  List.iter
    (fun (e : Kernel.entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel BB%d is in a loop" e.block_id)
        true (e.loop_depth > 0))
    analysis.Kernel.kernels;
  (* entry block is never a kernel *)
  Alcotest.(check bool) "entry not kernel" false analysis.Kernel.entries.(0).Kernel.is_kernel

let test_unexecuted_blocks_excluded () =
  let _, analysis =
    analyse {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 0; i = i + 1) { s = s + 1; }
  int j;
  for (j = 0; j < 3; j = j + 1) { s = s + 1; }
  out[0] = s;
}
|}
  in
  List.iter
    (fun (e : Kernel.entry) ->
      Alcotest.(check bool) "kernels were executed" true (e.exec_freq > 0))
    analysis.Kernel.kernels;
  Alcotest.(check int) "only the executed loop is a kernel" 1
    (List.length analysis.Kernel.kernels)

let test_weights_change_order () =
  (* a mul-heavy small loop vs an alu-heavy big loop: boosting the mul
     weight reorders the kernels *)
  let src = {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 20; i = i + 1) {
    s = s + i * i * i * i * i * i * i * i;
  }
  int j;
  for (j = 0; j < 40; j = j + 1) {
    s = s + j + j + j + j;
  }
  out[0] = s;
}
|} in
  let _, flat = analyse ~weights:{ Weights.paper with mul = 1 } src in
  let _, boosted = analyse ~weights:{ Weights.paper with mul = 50 } src in
  let first (a : Kernel.t) =
    match a.Kernel.kernels with
    | e :: _ -> e.Kernel.exec_freq
    | [] -> Alcotest.fail "no kernels"
  in
  Alcotest.(check int) "flat weights favour the 40x loop" 40 (first flat);
  Alcotest.(check int) "boosted mul favours the 20x loop" 20 (first boosted)

let test_table_rendering () =
  let _, analysis = analyse two_loops_src in
  let table = Table.render ~top:2 ~title:"demo" analysis in
  Alcotest.(check bool) "title present" true (Str_contains.contains table "demo");
  Alcotest.(check bool) "header present" true
    (Str_contains.contains table "Total weight")

let test_total_application_weight () =
  let _, analysis = analyse two_loops_src in
  let total =
    Array.fold_left (fun acc (e : Kernel.entry) -> acc + e.total_weight) 0
      analysis.Kernel.entries
  in
  let sum_kernels =
    List.fold_left (fun acc (e : Kernel.entry) -> acc + e.total_weight) 0
      analysis.Kernel.kernels
  in
  Alcotest.(check bool) "total covers at least the kernels" true
    (total >= sum_kernels)

let suite =
  [
    Alcotest.test_case "weight model" `Quick test_weight_model;
    Alcotest.test_case "bb_weight" `Quick test_bb_weight;
    Alcotest.test_case "Eq.1 total weight" `Quick test_eq1_total_weight;
    Alcotest.test_case "kernel ordering" `Quick test_kernel_ordering;
    Alcotest.test_case "kernels only in loops" `Quick test_kernels_only_in_loops;
    Alcotest.test_case "unexecuted excluded" `Quick test_unexecuted_blocks_excluded;
    Alcotest.test_case "weights change order" `Quick test_weights_change_order;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "total application weight" `Quick test_total_application_weight;
  ]
