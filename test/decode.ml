(* Test oracle: decode sides of the benchmark applications.

   Each encoder's output is actually decodable: the OFDM receiver (CP
   removal, forward FFT, nearest-constellation demapping) recovers the
   transmitted QAM symbols, the JPEG decoder (entropy decode, dequantise,
   IDCT) reconstructs the image, and the IMA ADPCM decoder reconstructs
   the waveform.  [test_decode] checks bit-error rates, PSNR and SNR with
   them: end-to-end evidence that the Mini-C applications implement the
   real pipelines, not stand-ins. *)

module Ofdm = Hypar_apps.Ofdm
module Jpeg = Hypar_apps.Jpeg
module Adpcm = Hypar_apps.Adpcm

(* --- OFDM receiver ------------------------------------------------------- *)

(* complex forward DFT, float: the receiver is a test oracle, so float
   precision is appropriate *)
let dft64 re im =
  let out_re = Array.make 64 0.0 and out_im = Array.make 64 0.0 in
  for k = 0 to 63 do
    let sr = ref 0.0 and si = ref 0.0 in
    for n = 0 to 63 do
      let angle = -2.0 *. Float.pi *. float_of_int (k * n) /. 64.0 in
      let c = cos angle and s = sin angle in
      sr := !sr +. (re.(n) *. c) -. (im.(n) *. s);
      si := !si +. (re.(n) *. s) +. (im.(n) *. c)
    done;
    out_re.(k) <- !sr;
    out_im.(k) <- !si
  done;
  (out_re, out_im)

(* The transmitter applies >>1 per IFFT stage (a /64 overall) on Q10
   constellation points; the forward DFT multiplies by 64, so a received
   carrier is back at Q10 scale: levels at -3072, -1024, +1024, +3072. *)
let demap_level v =
  if v < -2048.0 then 0 (* -3 -> Gray 00 *)
  else if v < 0.0 then 1 (* -1 -> Gray 01 *)
  else if v < 2048.0 then 3 (* +1 -> Gray 11 *)
  else 2 (* +3 -> Gray 10 *)

let ofdm_demodulate ~re ~im =
  let symbols = Array.length re / Ofdm.samples_per_symbol in
  let out = Array.make (symbols * 48) 0 in
  for s = 0 to symbols - 1 do
    let base = (s * Ofdm.samples_per_symbol) + 16 (* skip the CP *) in
    let t_re = Array.init 64 (fun n -> float_of_int re.(base + n)) in
    let t_im = Array.init 64 (fun n -> float_of_int im.(base + n)) in
    let f_re, f_im = dft64 t_re t_im in
    Array.iteri
      (fun j carrier ->
        let i_bits = demap_level f_re.(carrier) in
        let q_bits = demap_level f_im.(carrier) in
        out.((s * 48) + j) <- (i_bits lsl 2) lor q_bits)
      Ofdm.carrier_map
  done;
  out

let ofdm_bit_errors ~sent ~received =
  let errors = ref 0 in
  Array.iteri
    (fun i v ->
      let diff = v lxor received.(i) in
      for b = 0 to 3 do
        if diff land (1 lsl b) <> 0 then incr errors
      done)
    sent;
  !errors

(* --- JPEG decoder --------------------------------------------------------- *)

type jpeg_image = { pixels : int array; width : int; height : int }

type bit_reader = { data : int array; len : int; mutable bitpos : int }

let read_bit r =
  let byte = r.bitpos / 8 in
  if byte >= r.len then failwith "jpeg_decode: bitstream exhausted";
  let bit = (r.data.(byte) lsr (7 - (r.bitpos mod 8))) land 1 in
  r.bitpos <- r.bitpos + 1;
  bit

let read_bits r n =
  let v = ref 0 in
  for _ = 1 to n do
    v := (!v lsl 1) lor read_bit r
  done;
  !v

(* canonical decode against the DC code table *)
let read_dc_category r =
  let code = ref 0 and len = ref 0 in
  let result = ref None in
  while !result = None do
    if !len > 9 then failwith "jpeg_decode: invalid DC code";
    code := (!code lsl 1) lor read_bit r;
    incr len;
    Array.iteri
      (fun cat l ->
        if !result = None && l = !len && Jpeg.dc_code_of cat = !code then
          result := Some cat)
      Jpeg.dc_lengths
  done;
  Option.get !result

let extend_amplitude amp cat =
  if cat = 0 then 0
  else if amp < 1 lsl (cat - 1) then amp - ((1 lsl cat) - 1)
  else amp

(* float IDCT oracle (the encoder's coefficients are 8x the standard
   JPEG DCT, libjpeg convention) *)
let idct_8x8 coeffs =
  let c u = if u = 0 then 1.0 /. sqrt 2.0 else 1.0 in
  let out = Array.make 64 0 in
  for y = 0 to 7 do
    for x = 0 to 7 do
      let acc = ref 0.0 in
      for v = 0 to 7 do
        for u = 0 to 7 do
          let f = float_of_int coeffs.((v * 8) + u) /. 8.0 in
          acc :=
            !acc
            +. (c u *. c v *. f
               *. cos ((2.0 *. float_of_int x +. 1.0) *. float_of_int u *. Float.pi /. 16.0)
               *. cos ((2.0 *. float_of_int y +. 1.0) *. float_of_int v *. Float.pi /. 16.0))
        done
      done;
      let p = int_of_float (Float.round (!acc /. 4.0)) + 128 in
      out.((y * 8) + x) <- (if p < 0 then 0 else if p > 255 then 255 else p)
    done
  done;
  out

let jpeg_decode ?(quant_table = Jpeg.quant_table) ~bytes_in ~len () =
  let r = { data = bytes_in; len; bitpos = 0 } in
  let width = Jpeg.width and height = Jpeg.height in
  let pixels = Array.make (width * height) 0 in
  let prev_dc = ref 0 in
  for by = 0 to (height / 8) - 1 do
    for bx = 0 to (width / 8) - 1 do
      let zz = Array.make 64 0 in
      (* DC *)
      let cat = read_dc_category r in
      let amp = read_bits r cat in
      let diff = extend_amplitude amp cat in
      prev_dc := !prev_dc + diff;
      zz.(0) <- !prev_dc;
      (* AC: fixed 8-bit run/size symbols, 0 = EOB, 240 = ZRL *)
      let k = ref 1 in
      while !k < 64 do
        let symbol = read_bits r 8 in
        if symbol = 0 then k := 64 (* EOB *)
        else if symbol = 240 then k := !k + 16 (* ZRL *)
        else begin
          let run = symbol lsr 4 and size = symbol land 15 in
          k := !k + run;
          if !k > 63 then failwith "jpeg_decode: run past end of block";
          let amp = read_bits r size in
          zz.(!k) <- extend_amplitude amp size;
          incr k
        end
      done;
      (* dequantise through the zig-zag order *)
      let coeffs = Array.make 64 0 in
      Array.iteri
        (fun i natural -> coeffs.(natural) <- zz.(i) * quant_table.(natural) * 8)
        Jpeg.zigzag;
      let blk = idct_8x8 coeffs in
      for yy = 0 to 7 do
        for xx = 0 to 7 do
          pixels.((((by * 8) + yy) * width) + (bx * 8) + xx) <- blk.((yy * 8) + xx)
        done
      done
    done
  done;
  { pixels; width; height }

let psnr a b =
  if Array.length a <> Array.length b then invalid_arg "psnr: size mismatch";
  let mse = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = float_of_int (v - b.(i)) in
      mse := !mse +. (d *. d))
    a;
  let mse = !mse /. float_of_int (Array.length a) in
  if mse = 0.0 then infinity else 10.0 *. log10 (255.0 *. 255.0 /. mse)

(* --- ADPCM decoder --------------------------------------------------------- *)

let adpcm_decode ~codes =
  let out = Array.make Adpcm.samples 0 in
  let predicted = ref 0 and index = ref 0 in
  for n = 0 to Adpcm.samples - 1 do
    let byte = codes.(n asr 1) in
    let nibble = if n land 1 = 0 then byte land 15 else (byte lsr 4) land 15 in
    let sign = nibble land 8 and code = nibble land 7 in
    let step = Adpcm.step_table.(!index) in
    let vpdiff = ref (step asr 3) in
    if code land 4 <> 0 then vpdiff := !vpdiff + step;
    if code land 2 <> 0 then vpdiff := !vpdiff + (step asr 1);
    if code land 1 <> 0 then vpdiff := !vpdiff + (step asr 2);
    if sign <> 0 then predicted := !predicted - !vpdiff
    else predicted := !predicted + !vpdiff;
    predicted := min 32767 (max (-32768) !predicted);
    index := min 88 (max 0 (!index + Adpcm.index_table.(code)));
    out.(n) <- !predicted
  done;
  out

let snr_db ~reference ~decoded =
  if Array.length reference <> Array.length decoded then
    invalid_arg "snr_db: size mismatch";
  let signal = ref 0.0 and noise = ref 0.0 in
  Array.iteri
    (fun i v ->
      let s = float_of_int v in
      let e = float_of_int (v - decoded.(i)) in
      signal := !signal +. (s *. s);
      noise := !noise +. (e *. e))
    reference;
  if !noise = 0.0 then infinity else 10.0 *. log10 (!signal /. !noise)
