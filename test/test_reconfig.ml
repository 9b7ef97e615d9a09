(* Unit tests for the reconfiguration-time models on the FPGA device. *)

module Fpga = Hypar_finegrain.Fpga
module Fine_map = Hypar_finegrain.Fine_map
module Ir = Hypar_ir

let fp = Fpga.default_frame_params

let test_flat_ignores_area () =
  let fpga = Fpga.make ~area:1500 ~reconfig_cycles:24 () in
  Alcotest.(check int) "small partition" 24
    (Fpga.partition_reconfig_cycles fpga ~partition_area:10);
  Alcotest.(check int) "large partition" 24
    (Fpga.partition_reconfig_cycles fpga ~partition_area:1400)

let test_frame_full_constant () =
  let fpga = Fpga.make ~area:1500 ~reconfig_model:(Fpga.Frame_full fp) () in
  let c1 = Fpga.partition_reconfig_cycles fpga ~partition_area:10 in
  let c2 = Fpga.partition_reconfig_cycles fpga ~partition_area:1400 in
  Alcotest.(check int) "full-device cost independent of partition" c1 c2;
  (* 375 CLBs -> 24 columns of 16 = 384 configured CLBs:
     (256 + 384*64 + 16) / 64 = ceil(24848/64) = 389 *)
  Alcotest.(check int) "expected magnitude" 389 c1

let test_frame_partial_grows () =
  let fpga = Fpga.make ~area:1500 ~reconfig_model:(Fpga.Frame_partial fp) () in
  let small = Fpga.partition_reconfig_cycles fpga ~partition_area:16 in
  let large = Fpga.partition_reconfig_cycles fpga ~partition_area:1400 in
  Alcotest.(check bool)
    (Printf.sprintf "partial grows with area (%d < %d)" small large)
    true (small < large);
  let full = Fpga.make ~area:1500 ~reconfig_model:(Fpga.Frame_full fp) () in
  Alcotest.(check bool) "partial never exceeds full" true
    (large <= Fpga.partition_reconfig_cycles full ~partition_area:1400)

let test_partial_clamped_to_device () =
  let fpga = Fpga.make ~area:1500 ~reconfig_model:(Fpga.Frame_partial fp) () in
  let oversized = Fpga.partition_reconfig_cycles fpga ~partition_area:1_000_000 in
  let full = Fpga.make ~area:1500 ~reconfig_model:(Fpga.Frame_full fp) () in
  Alcotest.(check int) "clamped to the device size"
    (Fpga.partition_reconfig_cycles full ~partition_area:0)
    oversized

let test_fine_map_uses_model () =
  let dfg =
    Ir.Builder.dfg_of (fun b ->
        let x = Ir.Builder.fresh_var b "x" in
        for _ = 1 to 40 do
          ignore (Ir.Builder.bin b Ir.Types.Add "t" (Ir.Builder.var x) (Ir.Builder.imm 1))
        done)
  in
  let flat = Fpga.make ~area:1500 ~reconfig_cycles:24 () in
  let partial = Fpga.make ~area:1500 ~reconfig_model:(Fpga.Frame_partial fp) () in
  let m_flat = Fine_map.map_dfg flat dfg in
  let m_partial = Fine_map.map_dfg partial dfg in
  Alcotest.(check int) "same temporal partitioning"
    m_flat.Fine_map.partition_count m_partial.Fine_map.partition_count;
  Alcotest.(check int) "flat: partitions x constant"
    (m_flat.Fine_map.partition_count * 24)
    m_flat.Fine_map.reconfig_cycles;
  Alcotest.(check bool) "frame model produces larger costs" true
    (m_partial.Fine_map.reconfig_cycles > m_flat.Fine_map.reconfig_cycles)

let test_matches_bitstream_module () =
  (* Fpga's closed-form pricing agrees with generating an actual stream *)
  let fpga = Fpga.make ~area:1500 ~reconfig_model:(Fpga.Frame_full fp) () in
  let device = Bitstream.device_of_fpga fpga in
  let stream = Bitstream.generate_full device ~op_areas:[ 64 ] in
  Alcotest.(check int) "closed form = generated stream"
    (Bitstream.reconfig_cycles stream)
    (Fpga.partition_reconfig_cycles fpga ~partition_area:64)

let suite =
  [
    Alcotest.test_case "flat ignores area" `Quick test_flat_ignores_area;
    Alcotest.test_case "frame-full constant" `Quick test_frame_full_constant;
    Alcotest.test_case "frame-partial grows" `Quick test_frame_partial_grows;
    Alcotest.test_case "partial clamped" `Quick test_partial_clamped_to_device;
    Alcotest.test_case "fine map uses model" `Quick test_fine_map_uses_model;
    Alcotest.test_case "matches Bitstream" `Quick test_matches_bitstream_module;
  ]
