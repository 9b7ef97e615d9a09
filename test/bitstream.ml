(* Test oracle: configuration bit-streams for temporal partitions, the
   derivation behind the frame models of
   {!Hypar_finegrain.Fpga.partition_reconfig_cycles}.

   The paper: "For each temporal segment a configuration bit-stream is
   generated... full reconfiguration of the fine-grain hardware is
   performed, thus the reconfiguration time has the same value for each
   partition."  A Virtex-style frame-organised device: the usable area
   maps to a CLB grid configured column by column; a partition's
   operations are placed row-major and a deterministic bit-stream (with
   a CRC-16 trailer) is produced.  Reconfiguration time derives from
   bit-stream length and configuration-port width: full-device streams
   for the paper's model (constant per partition), per-column partial
   streams as the alternative. *)

module Fpga = Hypar_finegrain.Fpga

type device = {
  clb_area : int;
  clbs : int;
  column_height : int;
  columns : int;
  bits_per_clb : int;
  port_bits_per_cycle : int;
  header_bits : int;
}

let device_of_fpga ?(clb_area = 4) ?(column_height = 16) ?(bits_per_clb = 64)
    ?(port_bits_per_cycle = 64) ?(header_bits = 256) (fpga : Fpga.t) =
  if clb_area <= 0 || column_height <= 0 || bits_per_clb <= 0
     || port_bits_per_cycle <= 0
  then invalid_arg "Bitstream.device_of_fpga: parameters must be positive";
  let clbs = max 1 (fpga.Fpga.area / clb_area) in
  let columns = (clbs + column_height - 1) / column_height in
  { clb_area; clbs; column_height; columns; bits_per_clb; port_bits_per_cycle;
    header_bits }

type t = {
  device : device;
  clbs_used : int;
  columns_used : int;
  bit_count : int;  (* header + configured frames + CRC *)
  words : int array;  (* the stream, 16-bit words *)
  crc : int;
}

(* CRC-16/CCITT (polynomial 0x1021, init 0xFFFF) over 16-bit words. *)
let crc16 words =
  let crc = ref 0xFFFF in
  Array.iter
    (fun word ->
      for bit = 15 downto 0 do
        let data_bit = (word lsr bit) land 1 in
        let msb = (!crc lsr 15) land 1 in
        crc := (!crc lsl 1) land 0xFFFF;
        if msb lxor data_bit = 1 then crc := !crc lxor 0x1021
      done)
    words;
  !crc

(* Deterministic frame contents: a cheap hash of (column, clb slot,
   occupying-op index) — stands in for LUT masks and routing bits. *)
let frame_word ~column ~slot ~op =
  let h = (column * 73856093) lxor (slot * 19349663) lxor ((op + 1) * 83492791) in
  (h lsr 7) land 0xFFFF

let generate_gen ~full device ~op_areas =
  List.iter
    (fun a -> if a <= 0 then invalid_arg "Bitstream.generate: non-positive op area")
    op_areas;
  (* row-major placement: op i occupies ceil(area/clb_area) consecutive CLBs *)
  let occupancy = Array.make device.clbs (-1) in
  let cursor = ref 0 in
  List.iteri
    (fun op area ->
      let needed = min device.clbs ((area + device.clb_area - 1) / device.clb_area) in
      if !cursor + needed > device.clbs then
        invalid_arg "Bitstream.generate: partition exceeds the device";
      for k = !cursor to !cursor + needed - 1 do
        occupancy.(k) <- op
      done;
      cursor := !cursor + needed)
    op_areas;
  let clbs_used = !cursor in
  let last_column =
    if full then device.columns
    else if clbs_used = 0 then 0
    else ((clbs_used - 1) / device.column_height) + 1
  in
  let words_per_clb = (device.bits_per_clb + 15) / 16 in
  let payload = ref [] in
  (* frames cover whole columns: slots past the last device CLB are
     configuration padding *)
  for column = 0 to last_column - 1 do
    for slot = 0 to device.column_height - 1 do
      let clb = (column * device.column_height) + slot in
      let op = if clb < device.clbs then occupancy.(clb) else -1 in
      for w = 0 to words_per_clb - 1 do
        payload := frame_word ~column ~slot:((slot * words_per_clb) + w) ~op :: !payload
      done
    done
  done;
  let payload = Array.of_list (List.rev !payload) in
  let crc = crc16 payload in
  let words = Array.append payload [| crc |] in
  let bit_count = device.header_bits + (Array.length payload * 16) + 16 in
  { device; clbs_used; columns_used = last_column; bit_count; words; crc }

let generate device ~op_areas = generate_gen ~full:false device ~op_areas
let generate_full device ~op_areas = generate_gen ~full:true device ~op_areas

let reconfig_cycles t =
  (t.bit_count + t.device.port_bits_per_cycle - 1) / t.device.port_bits_per_cycle

let verify t =
  let n = Array.length t.words in
  n >= 1 && crc16 (Array.sub t.words 0 (n - 1)) = t.words.(n - 1) && t.crc = t.words.(n - 1)
