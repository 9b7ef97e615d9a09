(* Unit tests for the configuration bit-stream oracle ({!Bitstream}). *)

module Fpga = Hypar_finegrain.Fpga
module Temporal = Hypar_finegrain.Temporal
module Ir = Hypar_ir

let fpga = Fpga.make ~area:1500 ()
let device = Bitstream.device_of_fpga fpga

let test_device_geometry () =
  Alcotest.(check int) "375 CLBs at 4 units each" 375 device.Bitstream.clbs;
  Alcotest.(check int) "24 columns of 16" 24 device.Bitstream.columns

let test_full_stream_constant_size () =
  (* the paper's full-reconfiguration model: size independent of content *)
  let s1 = Bitstream.generate_full device ~op_areas:[ 16 ] in
  let s2 = Bitstream.generate_full device ~op_areas:[ 16; 64; 128; 32 ] in
  Alcotest.(check int) "same bit count" s1.Bitstream.bit_count s2.Bitstream.bit_count;
  Alcotest.(check int) "covers every column" device.Bitstream.columns
    s1.Bitstream.columns_used;
  Alcotest.(check bool) "streams differ in content" true
    (s1.Bitstream.words <> s2.Bitstream.words)

let test_partial_stream_grows_with_area () =
  let small = Bitstream.generate device ~op_areas:[ 16 ] in
  let large = Bitstream.generate device ~op_areas:[ 400; 400; 400 ] in
  Alcotest.(check bool) "bigger partition, longer stream" true
    (large.Bitstream.bit_count > small.Bitstream.bit_count);
  Alcotest.(check bool) "partial smaller than full" true
    (large.Bitstream.bit_count
    <= (Bitstream.generate_full device ~op_areas:[ 16 ]).Bitstream.bit_count)

let test_reconfig_cycles () =
  let s = Bitstream.generate_full device ~op_areas:[ 16 ] in
  let expected =
    (s.Bitstream.bit_count + 63) / 64
  in
  Alcotest.(check int) "port-width division" expected (Bitstream.reconfig_cycles s)

let test_crc_detects_corruption () =
  let s = Bitstream.generate device ~op_areas:[ 64; 64 ] in
  Alcotest.(check bool) "fresh stream verifies" true (Bitstream.verify s);
  let corrupted = { s with Bitstream.words = Array.copy s.Bitstream.words } in
  corrupted.Bitstream.words.(0) <- corrupted.Bitstream.words.(0) lxor 0x0100;
  Alcotest.(check bool) "bit flip detected" false (Bitstream.verify corrupted)

let test_crc_known_value () =
  (* CRC-16/CCITT of an empty message is the initial value *)
  Alcotest.(check int) "empty payload" 0xFFFF (Bitstream.crc16 [||]);
  (* deterministic: same payload, same CRC *)
  let words = [| 1; 2; 3; 0xFFFF |] in
  Alcotest.(check int) "stable" (Bitstream.crc16 words) (Bitstream.crc16 words)

let test_oversized_partition_rejected () =
  (* a single oversized op is clamped to the whole device (mirroring the
     Figure-3 behaviour)... *)
  let s = Bitstream.generate device ~op_areas:[ 3000 ] in
  Alcotest.(check int) "clamped to the device" device.Bitstream.clbs
    s.Bitstream.clbs_used;
  (* ...but a partition that genuinely exceeds the device is rejected *)
  match Bitstream.generate device ~op_areas:[ 3000; 16 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection: partition larger than device"

let test_streams_for_real_partitions () =
  (* every temporal partition of the JPEG DCT block yields a valid stream *)
  let jpeg = Hypar_apps.Jpeg.prepared () in
  let dfg = Ir.Cdfg.dfg jpeg.Hypar_core.Flow.cdfg 5 in
  let tp = Temporal.partition ~area:1500 ~size:(Fpga.op_area fpga) dfg in
  List.iter
    (fun (p : Temporal.partition) ->
      let op_areas =
        List.map
          (fun id -> Fpga.op_area fpga (Ir.Dfg.node dfg id).Ir.Dfg.instr)
          p.node_ids
      in
      let s = Bitstream.generate device ~op_areas in
      Alcotest.(check bool) "verifies" true (Bitstream.verify s);
      Alcotest.(check bool) "loads in bounded time" true
        (Bitstream.reconfig_cycles s > 0
        && Bitstream.reconfig_cycles s
           <= Bitstream.reconfig_cycles (Bitstream.generate_full device ~op_areas)))
    tp.Temporal.partitions

let suite =
  [
    Alcotest.test_case "device geometry" `Quick test_device_geometry;
    Alcotest.test_case "full stream constant size" `Quick test_full_stream_constant_size;
    Alcotest.test_case "partial stream grows" `Quick test_partial_stream_grows_with_area;
    Alcotest.test_case "reconfiguration cycles" `Quick test_reconfig_cycles;
    Alcotest.test_case "CRC detects corruption" `Quick test_crc_detects_corruption;
    Alcotest.test_case "CRC known values" `Quick test_crc_known_value;
    Alcotest.test_case "oversized partition" `Quick test_oversized_partition_rejected;
    Alcotest.test_case "real partitions" `Quick test_streams_for_real_partitions;
  ]
