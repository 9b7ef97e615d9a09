(* End-to-end tests of the two benchmark applications: functional
   correctness against the OCaml golden models, structural facts from the
   paper, and the partitioning outcomes' shape claims. *)

module Ir = Hypar_ir
module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform
module Interp = Hypar_profiling.Interp
module Ofdm = Hypar_apps.Ofdm
module Jpeg = Hypar_apps.Jpeg

let test_ofdm_golden () =
  let prepared = Ofdm.prepared () in
  let golden_re, golden_im = Ofdm.golden (Ofdm.inputs ()) in
  let got_re = Interp.array_exn prepared.Flow.interp "out_re" in
  let got_im = Interp.array_exn prepared.Flow.interp "out_im" in
  Alcotest.(check bool) "real parts bit-exact" true (golden_re = got_re);
  Alcotest.(check bool) "imaginary parts bit-exact" true (golden_im = got_im)

let test_ofdm_golden_other_seed () =
  let inputs = Ofdm.inputs ~seed:123 () in
  let cdfg = Hypar_minic.Driver.compile_exn ~name:"ofdm" Ofdm.source in
  let r = Interp.run ~inputs cdfg in
  let golden_re, golden_im = Ofdm.golden inputs in
  Alcotest.(check bool) "seed 123 matches" true
    (golden_re = Interp.array_exn r "out_re"
    && golden_im = Interp.array_exn r "out_im")

let test_ofdm_cyclic_prefix_property () =
  (* the first 16 samples of each symbol equal its last 16 *)
  let golden_re, _ = Ofdm.golden (Ofdm.inputs ()) in
  for s = 0 to Ofdm.symbols - 1 do
    for c = 0 to 15 do
      let prefix = golden_re.((s * 80) + c) in
      let tail = golden_re.((s * 80) + 16 + 48 + c) in
      if prefix <> tail then Alcotest.failf "CP mismatch at symbol %d, %d" s c
    done
  done

let test_ofdm_nonzero_output () =
  let golden_re, golden_im = Ofdm.golden (Ofdm.inputs ()) in
  let energy =
    Array.fold_left (fun acc v -> acc + (v * v)) 0 golden_re
    + Array.fold_left (fun acc v -> acc + (v * v)) 0 golden_im
  in
  Alcotest.(check bool) "signal has energy" true (energy > 0)

let test_ofdm_block_count () =
  (* the paper's OFDM CDFG has 18 basic blocks; ours lands nearby *)
  let n = Ir.Cdfg.block_count (Ofdm.prepared ()).Flow.cdfg in
  Alcotest.(check bool)
    (Printf.sprintf "block count %d within [15, 25]" n)
    true
    (n >= 15 && n <= 25)

let test_jpeg_golden () =
  let prepared = Jpeg.prepared () in
  let g = Jpeg.golden (Jpeg.inputs ()) in
  let got = Interp.array_exn prepared.Flow.interp "out_bytes" in
  let mismatch = ref None in
  for i = 0 to g.Jpeg.len - 1 do
    if !mismatch = None && got.(i) <> g.Jpeg.bytes.(i) then mismatch := Some i
  done;
  (match !mismatch with
  | Some i -> Alcotest.failf "bitstreams differ at byte %d" i
  | None -> ());
  Alcotest.(check bool) "bitstream non-trivial" true (g.Jpeg.len > 1000)

let test_jpeg_compresses () =
  let g = Jpeg.golden (Jpeg.inputs ()) in
  (* entropy coding beats the 8-bit/pixel raw size *)
  Alcotest.(check bool) "under 8 bits per pixel" true
    (g.Jpeg.len < Jpeg.width * Jpeg.height)

let test_jpeg_dc_tracks_brightness () =
  (* an all-128 image level-shifts to zero: every DC is 0 and the AC
     stream collapses *)
  let flat = [ ("image", Array.make (Jpeg.width * Jpeg.height) 128) ] in
  let g = Jpeg.golden flat in
  Array.iter
    (fun dc -> if dc <> 0 then Alcotest.fail "flat image has non-zero DC")
    g.Jpeg.dc_values;
  Alcotest.(check bool) "tiny bitstream" true (g.Jpeg.len < 2048)

(* The synthetic image as it was built before the per-axis tables: three
   transcendental calls per pixel.  The tables must give the same
   pixels for every seed. *)
let jpeg_inputs_reference ~seed =
  let state = ref seed in
  let noise () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod 61
  in
  let pixel x y =
    let fx = float_of_int x and fy = float_of_int y in
    let v =
      80.0 +. (56.0 *. sin (fx /. 3.1)) +. (40.0 *. cos (fy /. 2.3))
      +. (24.0 *. sin ((fx +. (2.0 *. fy)) /. 5.7))
      +. (0.15 *. fx) +. (0.1 *. fy)
    in
    let v = int_of_float v + noise () in
    if v < 0 then 0 else if v > 255 then 255 else v
  in
  Array.init (Jpeg.width * Jpeg.height) (fun i ->
      pixel (i mod Jpeg.width) (i / Jpeg.width))

let test_jpeg_inputs_match_reference () =
  List.iter
    (fun seed ->
      let image = List.assoc "image" (Jpeg.inputs ~seed ()) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: same pixels as the per-pixel formula" seed)
        true
        (image = jpeg_inputs_reference ~seed))
    [ 7; 0; 1; 42; 123_456_789 ];
  Alcotest.(check bool) "the default seed is 7" true
    (Jpeg.inputs () = Jpeg.inputs ~seed:7 ())

let test_jpeg_block_count () =
  (* the paper's JPEG CDFG has 22 basic blocks; ours lands nearby *)
  let n = Ir.Cdfg.block_count (Jpeg.prepared ()).Flow.cdfg in
  Alcotest.(check bool)
    (Printf.sprintf "block count %d within [20, 40]" n)
    true
    (n >= 20 && n <= 40)

let paper_runs prepared timing_constraint =
  List.map
    (fun pl -> Flow.partition pl ~timing_constraint prepared)
    (Platform.paper_configs ())

let test_table2_shape () =
  let runs = paper_runs (Ofdm.prepared ()) Ofdm.timing_constraint in
  List.iter
    (fun (r : Engine.t) ->
      Alcotest.(check bool) "initial violates the constraint" true
        (r.Engine.initial.Engine.t_total > Ofdm.timing_constraint);
      Alcotest.(check bool) "partitioning meets it" true (Engine.met r);
      Alcotest.(check bool) "within a handful of moves" true
        (List.length r.Engine.moved <= 6);
      Alcotest.(check bool) "double-digit reduction" true
        (Engine.reduction_percent r > 30.0))
    runs;
  (* paper §4: bigger A_FPGA, smaller relative gain *)
  match runs with
  | [ a1500_2; _; a5000_2; _ ] ->
    Alcotest.(check bool) "reduction smaller at A=5000" true
      (Engine.reduction_percent a5000_2 < Engine.reduction_percent a1500_2)
  | _ -> Alcotest.fail "expected 4 configurations"

let test_table3_shape () =
  let runs = paper_runs (Jpeg.prepared ()) Jpeg.timing_constraint in
  List.iter
    (fun (r : Engine.t) ->
      Alcotest.(check bool) "initial violates the constraint" true
        (r.Engine.initial.Engine.t_total > Jpeg.timing_constraint);
      Alcotest.(check bool) "partitioning meets it" true (Engine.met r))
    runs;
  match runs with
  | [ a1500_2; _; a5000_2; _ ] ->
    Alcotest.(check bool) "initial cycles drop with area" true
      (a5000_2.Engine.initial.Engine.t_total
      < a1500_2.Engine.initial.Engine.t_total);
    Alcotest.(check bool) "reduction smaller at A=5000" true
      (Engine.reduction_percent a5000_2 < Engine.reduction_percent a1500_2)
  | _ -> Alcotest.fail "expected 4 configurations"

let test_moved_kernels_are_hot () =
  (* the engine's first OFDM move is the IFFT butterfly (freq 1152) *)
  let prepared = Ofdm.prepared () in
  let r =
    Flow.partition (List.hd (Platform.paper_configs ()))
      ~timing_constraint:Ofdm.timing_constraint prepared
  in
  match r.Engine.steps with
  | first :: _ ->
    Alcotest.(check int) "butterfly moved first" 1152
      first.Engine.kernel.Hypar_analysis.Kernel.exec_freq
  | [] -> Alcotest.fail "no moves"

let test_matmul_and_fir_compile_and_run () =
  let matmul = Hypar_apps.Synth.matmul_source ~n:8 in
  let prepared =
    Flow.prepare ~name:"matmul" matmul
      ~inputs:
        [ ("a", Array.init 64 (fun i -> i mod 7)); ("b", Array.init 64 (fun i -> i mod 5)) ]
  in
  let c = Interp.array_exn prepared.Flow.interp "c" in
  (* spot-check c[0][0] = sum_k a[0][k] * b[k][0] *)
  let expected = ref 0 in
  for k = 0 to 7 do
    expected := !expected + (k mod 7 * (k * 8 mod 5))
  done;
  Alcotest.(check int) "matmul c00" !expected c.(0);
  let fir =
    {|
int x[40];
int h[8];
int y[32];
void main() {
  int i;
  for (i = 0; i < 32; i = i + 1) {
    int s = 0;
    int t;
    for (t = 0; t < 8; t = t + 1) {
      s = s + x[i + t] * h[t];
    }
    y[i] = s >> 8;
  }
}|}
  in
  let prepared_fir =
    Flow.prepare ~name:"fir" fir
      ~inputs:
        [ ("x", Array.init 40 (fun i -> i * 3)); ("h", Array.make 8 32) ]
  in
  let y = Interp.array_exn prepared_fir.Flow.interp "y" in
  (* y[0] = (sum_{t<8} x[t]*32) >> 8 = (32*3*28) >> 8 *)
  Alcotest.(check int) "fir y0" ((32 * 3 * 28) asr 8) y.(0)

let suite =
  [
    Alcotest.test_case "OFDM golden model" `Quick test_ofdm_golden;
    Alcotest.test_case "OFDM golden (other seed)" `Quick test_ofdm_golden_other_seed;
    Alcotest.test_case "OFDM cyclic prefix" `Quick test_ofdm_cyclic_prefix_property;
    Alcotest.test_case "OFDM signal energy" `Quick test_ofdm_nonzero_output;
    Alcotest.test_case "OFDM block count" `Quick test_ofdm_block_count;
    Alcotest.test_case "JPEG golden model" `Quick test_jpeg_golden;
    Alcotest.test_case "JPEG compresses" `Quick test_jpeg_compresses;
    Alcotest.test_case "JPEG flat image" `Quick test_jpeg_dc_tracks_brightness;
    Alcotest.test_case "JPEG block count" `Quick test_jpeg_block_count;
    Alcotest.test_case "Table 2 shape" `Quick test_table2_shape;
    Alcotest.test_case "Table 3 shape" `Quick test_table3_shape;
    Alcotest.test_case "moved kernels are hot" `Quick test_moved_kernels_are_hot;
    Alcotest.test_case "matmul and FIR" `Quick test_matmul_and_fir_compile_and_run;
  ]

let test_ofdm_scaling () =
  (* the parameterised transmitter stays bit-exact and scales linearly *)
  let check symbols =
    let inputs = Hypar_apps.Ofdm.inputs_for ~symbols () in
    let cdfg =
      Hypar_minic.Driver.compile_exn ~name:"ofdm-scaled"
        (Hypar_apps.Ofdm.source_for ~symbols)
    in
    let r = Interp.run ~inputs cdfg in
    let golden_re, golden_im = Hypar_apps.Ofdm.golden inputs in
    Alcotest.(check bool)
      (Printf.sprintf "%d symbols bit-exact" symbols)
      true
      (golden_re = Interp.array_exn r "out_re"
      && golden_im = Interp.array_exn r "out_im");
    Array.fold_left ( + ) 0 r.Interp.exec_freq
  in
  let blocks2 = check 2 and blocks4 = check 4 in
  (* dynamic block count scales ~2x with the payload (entry overhead aside) *)
  Alcotest.(check bool)
    (Printf.sprintf "linear scaling (%d vs %d)" blocks2 blocks4)
    true
    (abs (blocks4 - (2 * blocks2)) < blocks2 / 4)

let scaling_suite =
  [
    Alcotest.test_case "OFDM payload scaling" `Quick test_ofdm_scaling;
    Alcotest.test_case "JPEG input tables match the per-pixel formula" `Quick
      test_jpeg_inputs_match_reference;
  ]

let suite = suite @ scaling_suite
