(* Unit tests for the profiling layer (Profile). *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Profile = Hypar_profiling.Profile

let profile src =
  let cdfg = Driver.compile_exn src in
  Profile.of_result cdfg (Profile.run cdfg)

let loop_src = {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 25; i = i + 1) {
    s = s + i * i;
  }
  out[0] = s;
}
|}

let test_freq_and_dynamic_ops () =
  let p = profile loop_src in
  let body =
    match List.find_opt (fun (b : Profile.block_stats) -> b.freq = 25) (Array.to_list p.Profile.blocks) with
    | Some b -> b
    | None -> Alcotest.fail "no block with freq 25"
  in
  Alcotest.(check int) "dynamic = freq * static" (25 * body.static_ops)
    body.dynamic_ops;
  Alcotest.(check int) "loop depth 1" 1 body.loop_depth

let test_hottest_ordering () =
  let p = profile loop_src in
  let hottest = Profile.hottest p in
  let rec decreasing = function
    | (a : Profile.block_stats) :: (b :: _ as rest) ->
      a.dynamic_ops >= b.dynamic_ops && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by dynamic ops" true (decreasing hottest);
  let top2 = Profile.hottest ~limit:2 p in
  Alcotest.(check int) "limit respected" 2 (List.length top2)

let test_freq_accessor () =
  let p = profile loop_src in
  Alcotest.(check int) "entry runs once" 1 (Profile.freq p 0);
  Alcotest.(check int) "out of range is 0" 0 (Profile.freq p 999)

let test_edge_accessor () =
  let p = profile loop_src in
  let total_edges =
    List.fold_left (fun acc (_, c) -> acc + c) 0 p.Profile.edges
  in
  Alcotest.(check bool) "edges recorded" true (total_edges > 0);
  Alcotest.(check int) "missing edge is 0" 0 (Profile.edge_freq p 500 501)

let test_ofdm_expected_frequencies () =
  (* structural facts about the OFDM profile that mirror the paper's
     workload: 6 symbols, 64-sample clears, 48-carrier mapping, 1152
     butterflies (6 symbols x 6 stages x 32), 96 cyclic-prefix copies. *)
  let p = (Hypar_apps.Ofdm.prepared ()).Hypar_core.Flow.profile in
  let freqs = Array.to_list (Array.map (fun (b : Profile.block_stats) -> b.freq) p.Profile.blocks) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "some block has freq %d" expected)
        true
        (List.mem expected freqs))
    [ 6; 384; 288; 1152; 96 ]

let test_jpeg_expected_frequencies () =
  (* 1024 blocks, 65536 pixel-level iterations, 8192 DCT row passes. *)
  let p = (Hypar_apps.Jpeg.prepared ()).Hypar_core.Flow.profile in
  let freqs = Array.to_list (Array.map (fun (b : Profile.block_stats) -> b.freq) p.Profile.blocks) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "some block has freq %d" expected)
        true
        (List.mem expected freqs))
    [ 1024; 65536; 8192 ]

let suite =
  [
    Alcotest.test_case "freq and dynamic ops" `Quick test_freq_and_dynamic_ops;
    Alcotest.test_case "hottest ordering" `Quick test_hottest_ordering;
    Alcotest.test_case "freq accessor" `Quick test_freq_accessor;
    Alcotest.test_case "edge accessor" `Quick test_edge_accessor;
    Alcotest.test_case "OFDM frequencies" `Quick test_ofdm_expected_frequencies;
    Alcotest.test_case "JPEG frequencies" `Quick test_jpeg_expected_frequencies;
  ]
