(* Unit tests for Hypar_obs: span nesting/balance, counter aggregation,
   the disabled fast path, collect/replay merging and export roundtrips.
   Every test that records events injects a fake clock so the streams
   (and hence the assertions) are fully deterministic. *)

module Obs = Hypar_obs
module Event = Obs.Event
module Sink = Obs.Sink
module Span = Obs.Span
module Counter = Obs.Counter
module Export = Obs.Export
module Stats = Obs.Stats

(* enable the sink around [f] under a fresh fake clock, and always leave
   it disabled and empty for the next test *)
let recording f =
  Sink.clear ();
  Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Sink.disable ();
      Sink.clear ())
    (fun () -> Sink.with_clock (Obs.Clock.counter ()) f)

let summary_exn events =
  match Span.validate events with
  | Ok s -> s
  | Error msg -> Alcotest.failf "expected a valid stream: %s" msg

let test_nesting () =
  let events =
    recording (fun () ->
        Span.with_ "outer" (fun () ->
            Span.with_ "inner" (fun () -> ());
            Span.with_ "inner" (fun () -> ()));
        Sink.events ())
  in
  let s = summary_exn events in
  Alcotest.(check int) "events" 6 s.Span.events;
  Alcotest.(check int) "spans" 3 s.Span.spans;
  Alcotest.(check int) "max depth" 2 s.Span.max_depth;
  Alcotest.(check (list (pair string int)))
    "per-name counts"
    [ ("inner", 2); ("outer", 1) ]
    s.Span.names

let test_fake_clock_deterministic () =
  let run () =
    recording (fun () ->
        Span.with_ "a" (fun () -> Span.with_ "b" (fun () -> ()));
        Export.chrome (Sink.events ()))
  in
  Alcotest.(check string) "two runs identical" (run ()) (run ());
  let ts =
    recording (fun () ->
        Span.with_ "a" (fun () -> Span.with_ "b" (fun () -> ()));
        List.map (fun (e : Event.t) -> e.ts) (Sink.events ()))
  in
  Alcotest.(check (list (float 0.0))) "counter clock ticks" [ 0.; 1.; 2.; 3. ] ts

let test_unbalanced_detected () =
  let tid = Sink.tid () in
  let beg name ts = { Event.name; ts; tid; kind = Event.Begin { cat = "t"; args = [] } } in
  let end_ name ts = { Event.name; ts; tid; kind = Event.End } in
  (match Span.validate [ beg "a" 0. ] with
  | Ok _ -> Alcotest.fail "unclosed span accepted"
  | Error _ -> ());
  (match Span.validate [ beg "a" 0.; end_ "b" 1. ] with
  | Ok _ -> Alcotest.fail "mismatched end accepted"
  | Error _ -> ());
  match Span.validate [ end_ "a" 0. ] with
  | Ok _ -> Alcotest.fail "stray end accepted"
  | Error _ -> ()

let test_exception_safety () =
  let events =
    recording (fun () ->
        (try Span.with_ "boom" (fun () -> failwith "inside") with Failure _ -> ());
        Sink.events ())
  in
  let s = summary_exn events in
  Alcotest.(check int) "span closed despite raise" 1 s.Span.spans

let test_counter_aggregation () =
  let events =
    recording (fun () ->
        Counter.incr "moves";
        Counter.incr ~by:3 "moves";
        Counter.incr "evals";
        Counter.set "len" 7;
        Counter.set "len" 4;
        Sink.events ())
  in
  Alcotest.(check (list (pair string int)))
    "totals sum deltas"
    [ ("moves", 4); ("evals", 1) ]
    (Counter.totals events);
  Alcotest.(check (list (pair string int)))
    "gauges keep last write"
    [ ("len", 4) ]
    (Counter.gauges events)

let test_disabled_fast_path () =
  Sink.clear ();
  Alcotest.(check bool) "disabled by default" false (Sink.enabled ());
  let r = Span.with_ "off" (fun () -> 41 + 1) in
  Alcotest.(check int) "span body still runs" 42 r;
  Counter.incr "off";
  Counter.set "off" 9;
  Span.instant "off";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Sink.events ()));
  (* the counter path must not allocate when disabled: warm up, then
     watch minor-heap words over 10k increments *)
  Counter.incr "hot";
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Counter.incr "hot"
  done;
  let per_call = (Gc.minor_words () -. w0) /. 10_000. in
  if per_call > 0.5 then
    Alcotest.failf "disabled Counter.incr allocates %.2f words/call" per_call

let test_collect_replay () =
  recording (fun () ->
      Span.with_ "kept" (fun () -> ());
      let (), captured =
        Sink.collect (fun () -> Span.with_ "worker" (fun () -> ()))
      in
      Alcotest.(check int) "capture holds the worker span" 2 (List.length captured);
      Alcotest.(check int)
        "global unaffected by collect" 2
        (List.length (Sink.events ()));
      Sink.replay captured;
      let s = summary_exn (Sink.events ()) in
      Alcotest.(check (list (pair string int)))
        "replayed after kept"
        [ ("kept", 1); ("worker", 1) ]
        s.Span.names)

let test_replay_rewrites_tid () =
  recording (fun () ->
      let captured =
        Domain.join
          (Domain.spawn (fun () ->
               snd (Sink.collect (fun () -> Span.with_ "remote" (fun () -> ())))))
      in
      let remote_tids =
        List.sort_uniq compare (List.map (fun (e : Event.t) -> e.tid) captured)
      in
      Alcotest.(check bool)
        "captured on another domain" false
        (remote_tids = [ Sink.tid () ]);
      Sink.replay captured;
      List.iter
        (fun (e : Event.t) ->
          Alcotest.(check int) "tid rewritten to replayer" (Sink.tid ()) e.tid)
        (Sink.events ()))

let test_chrome_roundtrip () =
  let events =
    recording (fun () ->
        Span.with_ ~cat:"t" ~args:[ ("k", Event.Int 3); ("s", Event.Str "x\"y") ]
          "outer"
          (fun () ->
            Counter.incr ~by:2 "c";
            Span.instant "mark");
        Sink.events ())
  in
  match Export.parse_chrome (Export.chrome events) with
  | Error msg -> Alcotest.failf "parse_chrome failed: %s" msg
  | Ok parsed ->
    let s = summary_exn parsed in
    Alcotest.(check (list (pair string int)))
      "span names survive" [ ("outer", 1) ] s.Span.names;
    Alcotest.(check int) "all events survive" (List.length events)
      (List.length parsed)

let test_parse_chrome_rejects_garbage () =
  (match Export.parse_chrome "not json" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Export.parse_chrome "{\"traceEvents\":41}" with
  | Ok _ -> Alcotest.fail "accepted non-array traceEvents"
  | Error _ -> ()

let test_stats () =
  let events =
    recording (fun () ->
        (* counter clock: a opens at 0, b spans [1,2], a closes at 3 *)
        Span.with_ "a" (fun () -> Span.with_ "b" (fun () -> ()));
        Counter.incr ~by:5 "n";
        Sink.events ())
  in
  (match Stats.spans events with
  | [ a; b ] ->
    Alcotest.(check string) "outer first-completion order" "b" a.Stats.name;
    Alcotest.(check string) "then outer" "a" b.Stats.name;
    Alcotest.(check (float 0.001)) "b total" 1.0 a.Stats.total_us;
    Alcotest.(check (float 0.001)) "a total" 3.0 b.Stats.total_us;
    Alcotest.(check (float 0.001)) "a self excludes b" 2.0 b.Stats.self_us
  | l -> Alcotest.failf "expected 2 span stats, got %d" (List.length l));
  let rendered = Stats.render events in
  List.iter
    (fun needle ->
      if not (Str_contains.contains rendered needle) then
        Alcotest.failf "stats output misses %S:\n%s" needle rendered)
    [ "== hypar stats =="; "a"; "b"; "n" ]

(* Characterisation is traced per layer, never per block: a partition of
   OFDM (19 blocks) carries one [fine.temporal_partitions] counter holding
   the fine layer's total, and no [fine.*] or [cgc.*] span or gauge. *)
let test_probe_per_layer () =
  let prepared = Hypar_apps.Ofdm.prepared () in
  let platform =
    Hypar_core.Platform.make
      ~fpga:(Hypar_finegrain.Fpga.make ~area:1500 ())
      ~cgc:(Hypar_coarsegrain.Cgc.make ~cgcs:2 ~rows:2 ~cols:2 ())
      ()
  in
  let c =
    Hypar_core.Engine.characterise platform prepared.Hypar_core.Flow.cdfg
      prepared.Hypar_core.Flow.profile
  in
  let partitions =
    Array.fold_left ( + ) 0 c.Hypar_core.Engine.fine.Hypar_core.Engine.partition_count
  in
  (* the suite verifies IR everywhere, and the engine's input check would
     add a liveness span: trace the flow as an unverified run does *)
  let verify = !Hypar_ir.Passes.verify_passes in
  Hypar_ir.Passes.verify_passes := false;
  let events =
    Fun.protect
      ~finally:(fun () -> Hypar_ir.Passes.verify_passes := verify)
      (fun () ->
        recording (fun () ->
            ignore
              (Hypar_core.Flow.partition platform
                 ~timing_constraint:Hypar_apps.Ofdm.timing_constraint prepared);
            Sink.events ()))
  in
  let per_block (e : Event.t) =
    (String.starts_with ~prefix:"fine." e.name
    || String.starts_with ~prefix:"cgc." e.name)
    &&
    match e.kind with
    | Event.Begin _ | Event.End | Event.Gauge _ -> true
    | Event.Counter _ | Event.Instant _ -> false
  in
  (match List.filter per_block events with
  | [] -> ()
  | e :: _ -> Alcotest.failf "per-block probe %s in the trace" e.name);
  (match
     List.filter_map
       (fun (e : Event.t) ->
         match e.kind with
         | Event.Counter { delta } when e.name = "fine.temporal_partitions" ->
           Some delta
         | _ -> None)
       events
   with
  | [ delta ] ->
    Alcotest.(check int) "the fine layer's partitions" partitions delta
  | l -> Alcotest.failf "expected one partition counter, got %d" (List.length l));
  (* the flow's liveness solve is the one [characterise] above already
     ran on this CFG: reused, it leaves a [dataflow.liveness.reused]
     counter where a solve leaves its span's two events and an
     iterations counter *)
  Alcotest.(check int) "events per partition" 19 (List.length events)

let suite =
  [
    Alcotest.test_case "span nesting and balance" `Quick test_nesting;
    Alcotest.test_case "deterministic under fake clock" `Quick
      test_fake_clock_deterministic;
    Alcotest.test_case "unbalanced streams rejected" `Quick
      test_unbalanced_detected;
    Alcotest.test_case "end emitted on exception" `Quick test_exception_safety;
    Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
    Alcotest.test_case "disabled sink fast path" `Quick test_disabled_fast_path;
    Alcotest.test_case "collect/replay merge" `Quick test_collect_replay;
    Alcotest.test_case "replay rewrites tids" `Quick test_replay_rewrites_tid;
    Alcotest.test_case "chrome export roundtrip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "parser rejects garbage" `Quick
      test_parse_chrome_rejects_garbage;
    Alcotest.test_case "stats aggregation" `Quick test_stats;
    Alcotest.test_case "one probe per characterisation layer" `Quick
      test_probe_per_layer;
  ]
