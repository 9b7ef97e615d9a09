(* End-to-end decode tests: every encoder's output is decodable and the
   reconstruction quality is what the pipelines promise. *)

module Flow = Hypar_core.Flow
module Interp = Hypar_profiling.Interp
module Ofdm = Hypar_apps.Ofdm
module Jpeg = Hypar_apps.Jpeg
module Adpcm = Hypar_apps.Adpcm

let test_ofdm_roundtrip_zero_ber () =
  let inputs = Ofdm.inputs () in
  let sent =
    match List.assoc_opt "bits" inputs with Some b -> b | None -> assert false
  in
  let re, im = Ofdm.golden inputs in
  let received = Decode.ofdm_demodulate ~re ~im in
  Alcotest.(check int) "zero bit errors over 6 symbols" 0
    (Decode.ofdm_bit_errors ~sent ~received)

let test_ofdm_roundtrip_other_seed () =
  let inputs = Ofdm.inputs ~seed:2024 () in
  let sent = List.assoc "bits" inputs in
  let re, im = Ofdm.golden inputs in
  Alcotest.(check int) "zero bit errors (seed 2024)" 0
    (Decode.ofdm_bit_errors ~sent
       ~received:(Decode.ofdm_demodulate ~re ~im))

let test_jpeg_decode_psnr () =
  let inputs = Jpeg.inputs () in
  let original = List.assoc "image" inputs in
  let g = Jpeg.golden inputs in
  let img = Decode.jpeg_decode ~bytes_in:g.Jpeg.bytes ~len:g.Jpeg.len () in
  let p = Decode.psnr original img.Decode.pixels in
  Alcotest.(check bool)
    (Printf.sprintf "PSNR %.1f dB above 24" p)
    true (p > 24.0)

let test_jpeg_decode_flat_image_exact () =
  (* a flat 128 image quantises to all zeros and must reconstruct
     exactly *)
  let flat = Array.make (Jpeg.width * Jpeg.height) 128 in
  let g = Jpeg.golden [ ("image", flat) ] in
  let img = Decode.jpeg_decode ~bytes_in:g.Jpeg.bytes ~len:g.Jpeg.len () in
  Alcotest.(check bool) "exact reconstruction" true (img.Decode.pixels = flat)

let test_jpeg_decode_interpreted_stream () =
  (* decode the *interpreted Mini-C* bitstream, not just the golden one *)
  let prepared = Jpeg.prepared () in
  let g = Jpeg.golden (Jpeg.inputs ()) in
  let got = Interp.array_exn prepared.Flow.interp "out_bytes" in
  let img = Decode.jpeg_decode ~bytes_in:got ~len:g.Jpeg.len () in
  let original = List.assoc "image" (Jpeg.inputs ()) in
  Alcotest.(check bool) "interpreted stream decodes" true
    (Decode.psnr original img.Decode.pixels > 24.0)

let test_psnr_properties () =
  let a = Array.init 64 (fun i -> i * 4) in
  Alcotest.(check bool) "identical images" true (Decode.psnr a a = infinity);
  let b = Array.map (fun v -> min 255 (v + 10)) a in
  let c = Array.map (fun v -> min 255 (v + 40)) a in
  Alcotest.(check bool) "smaller error, higher PSNR" true
    (Decode.psnr a b > Decode.psnr a c)

let test_adpcm_decode_snr () =
  let inputs = Adpcm.inputs () in
  let pcm = List.assoc "pcm" inputs in
  let g = Adpcm.golden inputs in
  let decoded = Decode.adpcm_decode ~codes:g.Adpcm.codes in
  let snr = Decode.snr_db ~reference:pcm ~decoded in
  Alcotest.(check bool)
    (Printf.sprintf "SNR %.1f dB above 10" snr)
    true (snr > 10.0)

let test_adpcm_decoder_tracks_encoder_state () =
  (* the decoder's final predictor equals the encoder's *)
  let inputs = Adpcm.inputs () in
  let g = Adpcm.golden inputs in
  let decoded = Decode.adpcm_decode ~codes:g.Adpcm.codes in
  Alcotest.(check int) "final predictor agrees" g.Adpcm.final_predicted
    decoded.(Adpcm.samples - 1)

let test_adpcm_silence_roundtrip () =
  let silent = Array.make Adpcm.samples 0 in
  let g = Adpcm.golden [ ("pcm", silent) ] in
  let decoded = Decode.adpcm_decode ~codes:g.Adpcm.codes in
  Array.iter
    (fun v -> if abs v > 1 then Alcotest.fail "silence decodes to near-zero")
    decoded

let suite =
  [
    Alcotest.test_case "OFDM zero BER" `Quick test_ofdm_roundtrip_zero_ber;
    Alcotest.test_case "OFDM other seed" `Quick test_ofdm_roundtrip_other_seed;
    Alcotest.test_case "JPEG PSNR" `Quick test_jpeg_decode_psnr;
    Alcotest.test_case "JPEG flat exact" `Quick test_jpeg_decode_flat_image_exact;
    Alcotest.test_case "JPEG interpreted stream" `Quick test_jpeg_decode_interpreted_stream;
    Alcotest.test_case "PSNR properties" `Quick test_psnr_properties;
    Alcotest.test_case "ADPCM SNR" `Quick test_adpcm_decode_snr;
    Alcotest.test_case "ADPCM state tracking" `Quick test_adpcm_decoder_tracks_encoder_state;
    Alcotest.test_case "ADPCM silence" `Quick test_adpcm_silence_roundtrip;
  ]

let test_jpeg_quality_sweep () =
  (* higher quality -> finer quantisation -> higher PSNR and more bits;
     full round trip through the *interpreted Mini-C* encoder at each
     quality *)
  let inputs = Jpeg.inputs () in
  let original = List.assoc "image" inputs in
  let run quality =
    let g = Jpeg.golden ~quality inputs in
    let img =
      Decode.jpeg_decode
        ~quant_table:(Jpeg.quant_table_for ~quality)
        ~bytes_in:g.Jpeg.bytes ~len:g.Jpeg.len ()
    in
    (Decode.psnr original img.Decode.pixels, g.Jpeg.len)
  in
  let p25, l25 = run 25 in
  let p50, l50 = run 50 in
  let p90, l90 = run 90 in
  Alcotest.(check bool)
    (Printf.sprintf "PSNR increases with quality (%.1f < %.1f < %.1f)" p25 p50 p90)
    true
    (p25 < p50 && p50 < p90);
  Alcotest.(check bool)
    (Printf.sprintf "bitstream grows with quality (%d < %d < %d)" l25 l50 l90)
    true
    (l25 < l50 && l50 < l90)

let test_jpeg_quality_minic_matches_golden () =
  (* the quality-parameterised Mini-C encoder stays bit-exact *)
  let quality = 75 in
  let inputs = Jpeg.inputs () in
  let cdfg =
    Hypar_minic.Driver.compile_exn ~name:"jpeg75" (Jpeg.source_for ~quality)
  in
  let r = Interp.run ~inputs cdfg in
  let g = Jpeg.golden ~quality inputs in
  let got = Interp.array_exn r "out_bytes" in
  let ok = ref true in
  for i = 0 to g.Jpeg.len - 1 do
    if got.(i) <> g.Jpeg.bytes.(i) then ok := false
  done;
  Alcotest.(check bool) "quality-75 stream bit-exact" true !ok

let quality_suite =
  [
    Alcotest.test_case "quality sweep" `Quick test_jpeg_quality_sweep;
    Alcotest.test_case "quality Mini-C bit-exact" `Quick test_jpeg_quality_minic_matches_golden;
  ]

let suite = suite @ quality_suite
