(* Unit tests for the shared-memory communication model. *)

module Ir = Hypar_ir
module Comm = Hypar_core.Comm
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let loop_cdfg () =
  Driver.compile_exn {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 20; i = i + 1) {
    s = s + i;
  }
  out[0] = s;
}
|}

let body_block cdfg =
  match
    List.find_opt
      (fun i -> (Ir.Cdfg.info cdfg i).Ir.Cdfg.loop_depth > 0)
      (Ir.Cdfg.block_ids cdfg)
  with
  | Some i -> i
  | None -> Alcotest.fail "no loop body"

let test_model_validation () =
  (match Comm.make ~ports:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ports=0 must be rejected");
  let m = Comm.make ~cycles_per_word:2 ~ports:4 ~fixed_overhead:1 () in
  Alcotest.(check int) "fields" 2 m.Comm.cycles_per_word

let test_block_words () =
  let cdfg = loop_cdfg () in
  let live = Ir.Live.analyse (Ir.Cdfg.cfg cdfg) in
  let body = body_block cdfg in
  (* the rotated loop body reads and republishes s and i: 2 in + 2 out *)
  Alcotest.(check int) "live words" 4 (Comm.block_words live body)

(* The engine's [`Per_invocation] t_comm of moving [moved] under [comm] *)
let per_invocation_comm comm cdfg moved =
  let run = Interp.run cdfg in
  let platform =
    Hypar_core.Platform.make ~comm ~fpga:(Hypar_finegrain.Fpga.make ~area:1500 ())
      ~cgc:(Hypar_coarsegrain.Cgc.two_by_two 2) ()
  in
  let times =
    Hypar_core.Engine.evaluate ~comm_pricing:`Per_invocation platform cdfg
      (Hypar_profiling.Profile.of_result cdfg run) moved
  in
  (run.Interp.exec_freq, times.Hypar_core.Engine.t_comm)

let test_block_cycles () =
  let cdfg = loop_cdfg () in
  let body = body_block cdfg in
  let m = Comm.make ~cycles_per_word:1 ~ports:2 ~fixed_overhead:4 () in
  let freq, t_comm = per_invocation_comm m cdfg [ body ] in
  Alcotest.(check int) "20 invocations" 20 freq.(body);
  (* 4 words on 2 ports = 2 cycles, + 4 overhead *)
  Alcotest.(check int) "per-invocation cost" (6 * 20) t_comm

let test_per_invocation_total () =
  let cdfg = loop_cdfg () in
  let live = Ir.Live.analyse (Ir.Cdfg.cfg cdfg) in
  let body = body_block cdfg in
  let m = Comm.default in
  let per = Comm.words_cost m (Comm.block_words live body) in
  let freq, t_comm = per_invocation_comm m cdfg [ body ] in
  Alcotest.(check int) "freq-weighted" (per * freq.(body)) t_comm;
  Alcotest.(check int) "nothing moved, nothing paid" 0
    (snd (per_invocation_comm m cdfg []))

let test_transition_self_loop_free () =
  let cdfg = loop_cdfg () in
  let live = Ir.Live.analyse (Ir.Cdfg.cfg cdfg) in
  let r = Interp.run cdfg in
  let body = body_block cdfg in
  let on_cgc i = i = body in
  let cost =
    Comm.transition_cycles Comm.default live ~edges:r.Interp.edge_freq ~on_cgc
  in
  (* entering once and leaving once: far below 20 invocations' worth *)
  let per_inv = Comm.words_cost Comm.default (Comm.block_words live body) in
  Alcotest.(check bool)
    (Printf.sprintf "transition cost %d < per-invocation cost %d" cost (per_inv * 20))
    true
    (cost < per_inv * 20);
  Alcotest.(check bool) "still non-zero" true (cost > 0)

let test_transition_no_moves_is_free () =
  let cdfg = loop_cdfg () in
  let live = Ir.Live.analyse (Ir.Cdfg.cfg cdfg) in
  let r = Interp.run cdfg in
  Alcotest.(check int) "no crossing, no cost" 0
    (Comm.transition_cycles Comm.default live ~edges:r.Interp.edge_freq
       ~on_cgc:(fun _ -> false));
  Alcotest.(check int) "everything coarse, no cost" 0
    (Comm.transition_cycles Comm.default live ~edges:r.Interp.edge_freq
       ~on_cgc:(fun _ -> true))

let test_transition_counts_both_directions () =
  let cdfg = loop_cdfg () in
  let live = Ir.Live.analyse (Ir.Cdfg.cfg cdfg) in
  let body = body_block cdfg in
  let edges = [ ((0, body), 5); ((body, 0), 5) ] in
  let m = Comm.make ~cycles_per_word:0 ~ports:1 ~fixed_overhead:1 () in
  (* overhead only: 10 crossings *)
  Alcotest.(check int) "10 crossings x overhead 1" 10
    (Comm.transition_cycles m live ~edges ~on_cgc:(fun i -> i = body))

let suite =
  [
    Alcotest.test_case "model validation" `Quick test_model_validation;
    Alcotest.test_case "block words" `Quick test_block_words;
    Alcotest.test_case "block cycles" `Quick test_block_cycles;
    Alcotest.test_case "per-invocation total" `Quick test_per_invocation_total;
    Alcotest.test_case "self-loop transitions free" `Quick test_transition_self_loop_free;
    Alcotest.test_case "no moves, no cost" `Quick test_transition_no_moves_is_free;
    Alcotest.test_case "both directions priced" `Quick test_transition_counts_both_directions;
  ]
