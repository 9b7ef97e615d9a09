(* Unit tests for the one-call driver (Flow) and its error paths. *)

module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform

let platform () = List.hd (Platform.paper_configs ())

let test_prepare_runs_everything () =
  let p =
    Flow.prepare ~name:"tiny" ~inputs:[ ("in", [| 21 |]) ]
      {|
int in[1];
int out[1];
void main() { out[0] = in[0] * 2; }
|}
  in
  Alcotest.(check string) "name" "tiny" (Hypar_ir.Cdfg.name p.Flow.cdfg);
  Alcotest.(check int) "interpreted" 42
    (Hypar_profiling.Interp.array_exn p.Flow.interp "out").(0);
  Alcotest.(check bool) "profile collected" true
    (p.Flow.profile.Hypar_profiling.Profile.total_instrs_executed > 0)

let test_partition_source_shortcut () =
  let r =
    Flow.partition (platform ()) ~timing_constraint:max_int
    @@ Flow.prepare ~name:"loop"
         {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i++) { s += i; }
  out[0] = s;
}
|}
  in
  Alcotest.(check bool) "met trivially" true (Engine.met r);
  Alcotest.(check string) "cdfg name" "loop" r.Engine.cdfg_name

let test_frontend_error_raises () =
  match Flow.prepare ~name:"bad" "void main() { x = ; }" with
  | exception Hypar_minic.Driver.Frontend_error { name; err } ->
    Alcotest.(check (option string)) "carries the compilation name"
      (Some "bad") name;
    Alcotest.(check bool) "error is located" true
      (err.Hypar_minic.Driver.line >= 1)
  | _ -> Alcotest.fail "expected frontend failure"

let test_runtime_error_propagates () =
  match
    Flow.prepare ~name:"oob" {|
int t[2];
void main() { t[5] = 1; }
|}
  with
  | exception Hypar_profiling.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime error during profiling"

let test_unsimplified_flow () =
  let p =
    Flow.prepare ~name:"raw" ~simplify:false
      {|
int out[1];
void main() { out[0] = 1 + 2; }
|}
  in
  (* without simplification the addition is still in the program *)
  let has_add =
    Array.exists
      (fun (bi : Hypar_ir.Cdfg.block_info) ->
        List.exists
          (fun i -> Hypar_ir.Instr.mnemonic i = "add")
          bi.block.Hypar_ir.Block.instrs)
      (Hypar_ir.Cdfg.infos p.Flow.cdfg)
  in
  Alcotest.(check bool) "raw program keeps the add" true has_add

let suite =
  [
    Alcotest.test_case "prepare" `Quick test_prepare_runs_everything;
    Alcotest.test_case "partition_source" `Quick test_partition_source_shortcut;
    Alcotest.test_case "frontend errors" `Quick test_frontend_error_raises;
    Alcotest.test_case "runtime errors" `Quick test_runtime_error_propagates;
    Alcotest.test_case "unsimplified flow" `Quick test_unsimplified_flow;
  ]
