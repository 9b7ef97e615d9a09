(* Unit tests for CGC context-word generation. *)

module Ir = Hypar_ir
module Cgc = Hypar_coarsegrain.Cgc
module Schedule = Hypar_coarsegrain.Schedule
module Binding = Hypar_coarsegrain.Binding
module Context = Hypar_coarsegrain.Context
module Coarse_map = Hypar_coarsegrain.Coarse_map

let cgc2 = Cgc.two_by_two 2

let map dfg =
  match Coarse_map.map_dfg cgc2 dfg with
  | Some m -> m
  | None -> Alcotest.fail "expected mapping"

let mac_dfg () =
  Ir.Builder.dfg_of (fun b ->
      let a = Ir.Builder.fresh_var b "a" in
      let c = Ir.Builder.fresh_var b "c" in
      let t = Ir.Builder.mul b "t" (Ir.Builder.var a) (Ir.Builder.var a) in
      ignore (Ir.Builder.bin b Ir.Types.Add "u" (Ir.Builder.var t) (Ir.Builder.var c)))

let test_multiply_add_encoding () =
  let dfg = mac_dfg () in
  let m = map dfg in
  let ctx = Context.generate cgc2 dfg m.Coarse_map.schedule m.Coarse_map.binding in
  Alcotest.(check int) "one context cycle" 1 ctx.Context.cycles;
  let mnemonics =
    Array.to_list ctx.Context.words.(0)
    |> List.filter_map Context.decode_mnemonic
    |> List.sort compare
  in
  Alcotest.(check (list string)) "mul and add configured" [ "add"; "mul" ] mnemonics

let test_chained_routing () =
  let dfg = mac_dfg () in
  let m = map dfg in
  let ctx = Context.generate cgc2 dfg m.Coarse_map.schedule m.Coarse_map.binding in
  (* the add consumes the mul through the chain: one operand routed from
     the row above (code 1) *)
  let add_word =
    Array.to_list ctx.Context.words.(0)
    |> List.find (fun w -> Context.decode_mnemonic w = Some "add")
  in
  let route_a = (add_word lsr 7) land 7 in
  let route_b = (add_word lsr 10) land 7 in
  Alcotest.(check bool) "one chained operand" true (route_a = 1 || route_b = 1)

let test_idle_slots_inactive () =
  let dfg = mac_dfg () in
  let m = map dfg in
  let ctx = Context.generate cgc2 dfg m.Coarse_map.schedule m.Coarse_map.binding in
  let active =
    Array.fold_left
      (fun acc w -> if w land 1 = 1 then acc + 1 else acc)
      0 ctx.Context.words.(0)
  in
  Alcotest.(check int) "exactly two active slots" 2 active;
  Alcotest.(check (float 0.001)) "utilization 2/8" 0.25 (Context.utilization ctx)

let test_context_matches_gantt () =
  (* context decoding recovers exactly the ops the Gantt shows *)
  let jpeg = Hypar_apps.Jpeg.prepared () in
  let dfg = Ir.Cdfg.dfg jpeg.Hypar_core.Flow.cdfg 5 in
  let m = map dfg in
  let ctx = Context.generate cgc2 dfg m.Coarse_map.schedule m.Coarse_map.binding in
  let decoded =
    Array.fold_left
      (fun acc row ->
        acc
        + List.length (List.filter_map Context.decode_mnemonic (Array.to_list row)))
      0 ctx.Context.words
  in
  Alcotest.(check int) "one word per bound node op" decoded
    (List.length m.Coarse_map.binding.Binding.slots)

let test_load_cycles () =
  let dfg = mac_dfg () in
  let m = map dfg in
  let ctx = Context.generate cgc2 dfg m.Coarse_map.schedule m.Coarse_map.binding in
  Alcotest.(check int) "16-bit words over a 64-bit port"
    ((ctx.Context.total_bits + 63) / 64)
    (Context.load_cycles ctx ~port_bits_per_cycle:64);
  (* tiny compared with an FPGA bitstream: one kernel cycle is 8 slots x
     16 bits = 128 bits *)
  Alcotest.(check int) "total bits" (8 * 16) ctx.Context.total_bits

let test_immediate_routing () =
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        ignore (Ir.Builder.bin b Ir.Types.Shl "t" (Ir.Builder.var x) (Ir.Builder.imm 3)))
  in
  let m = map dfg in
  let ctx = Context.generate cgc2 dfg m.Coarse_map.schedule m.Coarse_map.binding in
  let word =
    Array.to_list ctx.Context.words.(0) |> List.find (fun w -> w land 1 = 1)
  in
  Alcotest.(check int) "operand A from register bank" 0 ((word lsr 7) land 7);
  Alcotest.(check int) "operand B immediate" 2 ((word lsr 10) land 7)

let suite =
  [
    Alcotest.test_case "multiply-add encoding" `Quick test_multiply_add_encoding;
    Alcotest.test_case "chained routing" `Quick test_chained_routing;
    Alcotest.test_case "idle slots" `Quick test_idle_slots_inactive;
    Alcotest.test_case "matches Gantt" `Quick test_context_matches_gantt;
    Alcotest.test_case "load cycles" `Quick test_load_cycles;
    Alcotest.test_case "immediate routing" `Quick test_immediate_routing;
  ]
