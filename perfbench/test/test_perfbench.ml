(* The benchmark's own checks: its statistics against Python's
   [statistics] module (the values below come from it), span self time
   by child coverage, host-speed scaling, and the pinned Tables 2-3
   feeding error_rate. *)

open Perfbench

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check close "even" 5.5 (Stats.median (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no values") (fun () ->
      ignore (Stats.median []))

let test_quartiles () =
  let q l = Stats.quartiles l in
  let triple = Alcotest.(triple close close close) in
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "two values extrapolate" (0.5, 2.0, 3.5) (q [ 3.0; 1.0 ]);
  Alcotest.check triple "unsorted with ties" (1.9375, 7.0, 9.9375)
    (q [ 10.5; 2.25; 7.0; 7.0; 1.0; 9.75 ])

let test_percentile () =
  let xs n = List.init n (fun i -> float_of_int (n - i)) in
  let p = Stats.percentile 90.0 (xs 100) in
  Alcotest.(check (float 0.0)) "nearest rank" 90.0 p.value;
  Alcotest.(check int) "samples" 100 p.samples;
  Alcotest.(check int) "ten above at n=100" 10 p.above;
  Alcotest.(check int) "nine above at n=99" 9 (Stats.percentile 90.0 (xs 99)).above;
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.min_samples 90.0);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stats.min_samples 50.0);
  Alcotest.(check (float 0.0)) "p50 of 1..4" 2.0 (Stats.percentile 50.0 (xs 4)).value

let test_geomean () =
  Alcotest.check close "2 and 8" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.check close "one value" 7.0 (Stats.geomean [ 7.0 ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_self_time () =
  let ev name ts kind = { Hypar_obs.Event.name; ts; tid = 0; kind } in
  let b name ts = ev name ts (Hypar_obs.Event.Begin { cat = ""; args = [] }) in
  let e name ts = ev name ts Hypar_obs.Event.End in
  (* parent 0..100 with children 10..40 and 30..60, which overlap as
     replayed worker captures can, and 90..120, which nests in the
     stream but ends after its parent in time *)
  let events =
    [ b "p" 0.; b "a" 10.; e "a" 40.; b "b" 30.; e "b" 60.; b "c" 90.; e "c" 120.; e "p" 100. ]
  in
  let stats = Spans.aggregate events in
  let p = Spans.find stats "p" in
  Alcotest.(check int) "one parent" 1 p.count;
  Alcotest.check close "total" 100.0 p.total_us;
  (* covered: 10..60 and 90..100 = 60 *)
  Alcotest.check close "self is duration minus child coverage" 40.0 p.self_us;
  Alcotest.check close "leaf self is its duration" 30.0 (Spans.find stats "a").self_us;
  Alcotest.(check int) "absent span" 0 (Spans.find stats "nope").count

let test_host_scale () =
  let t = Tally.create () in
  Tally.record t ~latency_ms:10.0 None;
  (* a host twice as slow as the reference *)
  Tally.calibrate ~measure:(fun () -> 2.0 *. Host.reference_ms) t;
  Tally.record t ~latency_ms:10.0 None;
  Tally.finish t;
  Alcotest.(check (list close)) "raw kept" [ 10.0; 10.0 ] t.raw_ms;
  Alcotest.(check (list close)) "scaled after calibration only" [ 5.0; 10.0 ]
    t.latencies_ms;
  Alcotest.check close "busy time scaled by the same factor" (t.busy_s *. 0.5)
    t.scaled_busy_s

let rows () = Paper.load "../expected.json"

let error_rate rows =
  let tally = Tally.create () in
  let o = Paper.check rows in
  Harness.record_verification tally (o.mismatches, o.report);
  float_of_int tally.failed /. float_of_int tally.attempted

let test_pinned_tables () =
  Alcotest.check close "pinned Tables 2-3 hold" 0.0 (error_rate (rows ()))

let test_wrong_expected () =
  let wrong =
    List.map
      (fun (r : Paper.row) ->
        if r.app = "ofdm" then
          { r with final_cycles = List.map (fun c -> c + 1) r.final_cycles }
        else r)
      (rows ())
  in
  Alcotest.(check bool) "a wrong expected value makes error_rate > 0" true
    (error_rate wrong > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "percentile with ten above" `Quick test_percentile;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
        ] );
      ("spans", [ Alcotest.test_case "self time by child coverage" `Quick test_self_time ]);
      ("host", [ Alcotest.test_case "times scaled per stretch" `Quick test_host_scale ]);
      ( "expected",
        [
          Alcotest.test_case "pinned tables" `Quick test_pinned_tables;
          Alcotest.test_case "wrong expected value" `Quick test_wrong_expected;
        ] );
    ]
