(* Unit tests for the Hypar_explore design-space exploration engine:
   axis parsing, Pareto-frontier correctness, cache-key stability,
   failed-point robustness and jobs-N determinism. *)

module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Space = Hypar_explore.Space
module Cache = Hypar_explore.Cache
module Pool = Hypar_obs.Pool
module Pareto = Hypar_explore.Pareto
module Eval = Hypar_explore.Eval
module Driver = Hypar_explore.Driver
module Render = Hypar_explore.Render

let matmul =
  lazy
    (let n = 8 in
     let inputs =
       [
         ("a", Array.init (n * n) (fun i -> (i * 7) mod 23));
         ("b", Array.init (n * n) (fun i -> (i * 5) mod 19));
       ]
     in
     Flow.prepare ~name:"matmul8" ~inputs (Hypar_apps.Synth.matmul_source ~n))

let budget prepared =
  match
    Eval.evaluate prepared
      { Space.area = 1500; cgcs = 2; rows = 2; cols = 2; clock_ratio = 3;
        timing = max_int }
  with
  | Ok m -> m.Eval.initial.Engine.t_total / 2
  | Error msg -> Alcotest.fail msg

(* ---- axis parsing ------------------------------------------------------- *)

let check_axis s expected =
  match Space.axis_of_string s with
  | Ok vs -> Alcotest.(check (list int)) s expected vs
  | Error e -> Alcotest.failf "axis %S rejected: %s" s e

let test_axis_parsing () =
  check_axis "1500" [ 1500 ];
  check_axis "500,1500,5000" [ 500; 1500; 5000 ];
  check_axis "1..4" [ 1; 2; 3; 4 ];
  check_axis "500..2000:500" [ 500; 1000; 1500; 2000 ];
  check_axis "1,3..5,10" [ 1; 3; 4; 5; 10 ];
  check_axis " 2 , 4 " [ 2; 4 ];
  (* duplicates are preserved: the cache deduplicates, not the parser *)
  check_axis "1500,1500" [ 1500; 1500 ]

let test_axis_errors () =
  List.iter
    (fun s ->
      match Space.axis_of_string s with
      | Ok _ -> Alcotest.failf "axis %S should be rejected" s
      | Error _ -> ())
    [ ""; "abc"; "1,,2"; "5..1"; "1..9:0"; "1..9:-2" ]

let test_space_bounds () =
  let space =
    Space.make ~areas:[ 1; 2; 3 ] ~cgcs:[ 1; 2 ] ~max_points:5
      ~timings:[ 100 ] ()
  in
  (match Space.points space with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "6 points should exceed max_points 5");
  match Space.points { space with Space.max_points = 6 } with
  | Ok pts -> Alcotest.(check int) "expanded" 6 (List.length pts)
  | Error e -> Alcotest.fail e

let test_enumeration_order () =
  let space =
    Space.make ~areas:[ 10; 20 ] ~cgcs:[ 1; 2 ] ~timings:[ 5 ] ()
  in
  match Space.points space with
  | Error e -> Alcotest.fail e
  | Ok pts ->
    Alcotest.(check (list (pair int int)))
      "areas outermost, cgcs inner"
      [ (10, 1); (10, 2); (20, 1); (20, 2) ]
      (List.map (fun (p : Space.point) -> (p.Space.area, p.Space.cgcs)) pts)

(* ---- Pareto frontier ---------------------------------------------------- *)

(* [a] dominates [b] exactly when [b] leaves a two-point frontier *)
let dominates a b = not (Pareto.frontier_flags Fun.id [| a; b |]).(1)

let test_pareto_dominance () =
  Alcotest.(check bool) "strictly better" true
    (dominates [| 1; 1 |] [| 2; 2 |]);
  Alcotest.(check bool) "better on one axis" true
    (dominates [| 1; 2 |] [| 2; 2 |]);
  Alcotest.(check bool) "worse on one axis" false
    (dominates [| 1; 3 |] [| 2; 2 |]);
  Alcotest.(check bool) "equal does not dominate" false
    (dominates [| 2; 2 |] [| 2; 2 |]);
  Alcotest.(check bool) "dominated" false
    (dominates [| 3; 3 |] [| 2; 2 |])

let test_pareto_frontier () =
  let id x = x in
  let frontier pts =
    let flags = Pareto.frontier_flags id (Array.of_list pts) in
    List.filteri (fun i _ -> flags.(i)) pts
  in
  (* classic trade-off curve + one dominated point *)
  Alcotest.(check (list (array int)))
    "dominated point removed"
    [ [| 1; 9 |]; [| 5; 5 |]; [| 9; 1 |] ]
    (frontier [ [| 1; 9 |]; [| 5; 5 |]; [| 9; 1 |]; [| 6; 6 |] ]);
  (* ties: equal vectors never dominate each other, both stay *)
  Alcotest.(check (list (array int)))
    "ties all kept"
    [ [| 3; 3 |]; [| 3; 3 |] ]
    (frontier [ [| 3; 3 |]; [| 3; 3 |]; [| 4; 4 |] ]);
  (* degenerate cases *)
  Alcotest.(check (list (array int)))
    "single point is its own frontier" [ [| 7 |] ]
    (frontier [ [| 7 |] ]);
  Alcotest.(check (list (array int))) "empty" [] (frontier [])

(* the definition, pair by pair: a point is on the frontier when no
   other vector is no worse everywhere and better somewhere *)
let naive_frontier_flags vecs =
  Array.map
    (fun v ->
      not
        (Array.exists
           (fun w ->
             List.for_all2 ( <= ) (Array.to_list w) (Array.to_list v)
             && List.exists2 ( < ) (Array.to_list w) (Array.to_list v))
           vecs))
    vecs

(* few distinct values and vectors drawn from a small pool: ties on an
   objective and whole duplicate vectors are the common case *)
let objective_vectors_arb =
  let open QCheck.Gen in
  let vectors =
    int_range 1 4 >>= fun dim ->
    list_size (int_range 1 6) (array_repeat dim (int_range 0 3)) >>= fun pool ->
    array_size (int_range 0 40) (oneofl pool)
  in
  QCheck.make
    ~print:(fun vs ->
      String.concat " "
        (Array.to_list
           (Array.map
              (fun v ->
                "["
                ^ String.concat ";" (Array.to_list (Array.map string_of_int v))
                ^ "]")
              vs)))
    vectors

let prop_frontier_flags_naive =
  QCheck.Test.make ~name:"pareto: frontier_flags equals the pairwise definition"
    ~count:500 objective_vectors_arb (fun vecs ->
      Pareto.frontier_flags Fun.id vecs = naive_frontier_flags vecs)

let test_pareto_best_by () =
  Alcotest.(check (option int)) "min index" (Some 2)
    (Pareto.best_by (fun x -> x) [| 5; 3; 1; 4 |]);
  Alcotest.(check (option int)) "first on tie" (Some 0)
    (Pareto.best_by (fun x -> x) [| 2; 2; 2 |]);
  Alcotest.(check (option int)) "empty" None (Pareto.best_by (fun x -> x) [||])

(* ---- pool --------------------------------------------------------------- *)

let test_pool_matches_sequential () =
  let xs = Array.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  let seq = Pool.map ~jobs:1 f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        seq (Pool.map ~jobs f xs))
    [ 2; 3; 8; 64 ]

(* A raise from any slot leaves [map] only after every domain is joined:
   the slots that do not raise sleep (the one after the raising slot
   longest) and count themselves done.  [map] deals slots round-robin
   over [Pool.workers] workers, so every slot finishes except the raising
   one and the later slots of its own worker. *)
let test_pool_joins_before_raising () =
  let n = 4 in
  let workers = Pool.workers ~jobs:n n in
  let raising slot =
    let finished = Atomic.make 0 in
    let f i =
      if i = slot then failwith (string_of_int i);
      Unix.sleepf (0.05 *. float_of_int (i + 1));
      Atomic.incr finished
    in
    match Pool.map ~jobs:n f (Array.init n Fun.id) with
    | _ -> Alcotest.failf "slot %d: no exception" slot
    | exception Failure msg ->
      let expected =
        List.length
          (List.filter
             (fun i -> i < slot || (i > slot && (i - slot) mod workers <> 0))
             (List.init n Fun.id))
      in
      Alcotest.(check string) "the slot's exception" (string_of_int slot) msg;
      Alcotest.(check int)
        (Printf.sprintf "slot %d on %d workers: every other worker finished"
           slot workers)
        expected (Atomic.get finished)
  in
  raising 0;
  raising 2

let test_pool_workers_capped () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "one job" 1 (Pool.workers ~jobs:1 100);
  Alcotest.(check int) "no more workers than elements" 1
    (Pool.workers ~jobs:8 1);
  Alcotest.(check int) "no more workers than cores" (min 64 cores)
    (Pool.workers ~jobs:64 64)

(* ---- cache key stability ------------------------------------------------ *)

let test_point_key_stable () =
  let p =
    { Space.area = 1500; cgcs = 2; rows = 2; cols = 2; clock_ratio = 3;
      timing = 8000 }
  in
  (* the documented format: renderers, tests and cram output rely on it *)
  Alcotest.(check string) "point key" "a1500/k2/g2x2/r3/t8000"
    (Space.point_key p);
  Alcotest.(check string) "cache key" "d|a1500/k2/g2x2/r3/t8000"
    (Cache.key ~digest:"d" p)

let test_digest_stable_across_compiles () =
  let source = Hypar_apps.Synth.matmul_source ~n:4 in
  let d1 = Cache.digest_of_cdfg (Flow.prepare ~name:"m" source).Flow.cdfg in
  let d2 = Cache.digest_of_cdfg (Flow.prepare ~name:"m" source).Flow.cdfg in
  Alcotest.(check string) "same source, same digest" d1 d2;
  let other =
    Cache.digest_of_cdfg
      (Flow.prepare ~name:"m" (Hypar_apps.Synth.matmul_source ~n:5)).Flow.cdfg
  in
  Alcotest.(check bool) "different source, different digest" true (d1 <> other)

let test_cache_counters () =
  let c = Cache.create () in
  let p =
    { Space.area = 1500; cgcs = 2; rows = 2; cols = 2; clock_ratio = 3;
      timing = 8000 }
  in
  Alcotest.(check bool) "miss" true (Cache.find c p = None);
  Cache.add c p 1;
  Alcotest.(check bool) "hit" true (Cache.find c { p with timing = 8000 } = Some 1);
  Alcotest.(check bool) "other point misses" true
    (Cache.find c { p with timing = 8001 } = None);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses

(* ---- driver: duplicates, failures, determinism -------------------------- *)

let test_duplicate_configs_hit_cache () =
  let prepared = Lazy.force matmul in
  let t = budget prepared in
  let space =
    Space.make ~areas:[ 1500; 1500; 1500 ] ~cgcs:[ 2 ] ~timings:[ t ] ()
  in
  match Driver.run prepared space with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "one unique evaluation" 1 s.Driver.cache.Cache.misses;
    Alcotest.(check int) "two served from cache" 2 s.Driver.cache.Cache.hits;
    Alcotest.(check bool) "first point computed" false s.Driver.results.(0).Driver.cached;
    Alcotest.(check bool) "later points cached" true s.Driver.results.(1).Driver.cached;
    (* cached points carry the same outcome *)
    Alcotest.(check bool) "outcomes shared" true
      (s.Driver.results.(0).Driver.outcome = s.Driver.results.(1).Driver.outcome)

let test_failed_point_recorded () =
  let prepared = Lazy.force matmul in
  let t = budget prepared in
  let space = Space.make ~areas:[ 0; 1500 ] ~cgcs:[ 2 ] ~timings:[ t ] () in
  match Driver.run prepared space with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "one failed" 1 (Driver.failed_count s);
    Alcotest.(check int) "one ok" 1 (Driver.ok_count s);
    Alcotest.(check bool) "not all failed" false (Driver.all_failed s);
    (match s.Driver.results.(0).Driver.outcome with
    | Error msg ->
      (* the message names the raising constructor and the point itself *)
      Alcotest.(check string) "validation message"
        (Printf.sprintf
           "Invalid_argument: Fpga.make: area must be positive [point %s]"
           (Space.point_key s.Driver.results.(0).Driver.point))
        msg
    | Ok _ -> Alcotest.fail "area 0 should fail");
    Alcotest.(check bool) "failed point never on the frontier" false
      s.Driver.pareto.(0)

let test_all_failed () =
  let prepared = Lazy.force matmul in
  let space = Space.make ~areas:[ 0; -5 ] ~cgcs:[ 2 ] ~timings:[ 100 ] () in
  match Driver.run prepared space with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "all failed" true (Driver.all_failed s);
    Alcotest.(check (option int)) "no best point" None s.Driver.best_time

let test_jobs_determinism () =
  let prepared = Lazy.force matmul in
  let t = budget prepared in
  let space =
    Space.make ~areas:[ 0; 500; 1500 ] ~cgcs:[ 1; 2 ] ~clock_ratios:[ 3 ]
      ~timings:[ t ] ()
  in
  let render jobs =
    match Driver.run ~jobs ~workload:"matmul8" prepared space with
    | Error e -> Alcotest.fail e
    | Ok s -> (Render.text s, Render.csv s, Render.json s, Render.markdown s)
  in
  let t1, c1, j1, m1 = render 1 in
  let t4, c4, j4, m4 = render 4 in
  Alcotest.(check string) "text jobs=4 == jobs=1" t1 t4;
  Alcotest.(check string) "csv jobs=4 == jobs=1" c1 c4;
  Alcotest.(check string) "json jobs=4 == jobs=1" j1 j4;
  Alcotest.(check string) "markdown jobs=4 == jobs=1" m1 m4

(* Faults, transient failures absorbed by retries, and a point fuel that
   cuts the kernel search short: every output, the checkpoint journal
   included, is the same for every [jobs]. *)
let hardened_faults =
  match
    Hypar_resilience.Spec.of_string
      "seed 5\ndead-node 0 1 1 mult\ncomm-slowdown 150\ntransient 500 2"
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "spec rejected: %s" e

let hardened_space prepared =
  let t = budget prepared in
  Space.make ~areas:[ 0; 500; 1500 ] ~cgcs:[ 1; 2 ] ~clock_ratios:[ 2; 3 ]
    ~timings:[ t / 4; t / 2; t; 2 * t ] ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_jobs_determinism_hardened () =
  let prepared = Lazy.force matmul in
  let space = hardened_space prepared in
  let run jobs =
    let path = Filename.temp_file "hypar-explore" ".journal" in
    match
      Driver.run ~jobs ~faults:hardened_faults ~retries:1 ~point_fuel:2
        ~checkpoint:path prepared space
    with
    | Error e -> Alcotest.fail e
    | Ok s ->
      let journal = read_file path in
      Sys.remove path;
      [ Render.text s; Render.csv s; Render.json s; journal ]
  in
  let one = run 1 in
  Alcotest.(check bool) "some points failed, some moved" true
    (Str_contains.contains (List.nth one 1) "injected transient"
    && Str_contains.contains (List.nth one 1) "met-after");
  List.iter
    (fun jobs ->
      List.iter2
        (fun what (a, b) ->
          Alcotest.(check string)
            (Printf.sprintf "%s jobs=%d == jobs=1" what jobs)
            a b)
        [ "text"; "csv"; "json"; "checkpoint" ]
        (List.combine one (run jobs)))
    [ 2; 4 ]

(* A checkpoint cut off halfway through a platform's group of points
   (four constraints per platform) resumes to the fresh run's outputs and
   to the fresh run's journal, byte for byte. *)
let test_resume_mid_platform () =
  let prepared = Lazy.force matmul in
  let space = hardened_space prepared in
  let path = Filename.temp_file "hypar-explore" ".journal" in
  let render = function
    | Error e -> Alcotest.fail e
    | Ok s -> (Render.csv s, Render.json s)
  in
  let run ?resume jobs =
    render
      (Driver.run ~jobs ~faults:hardened_faults ~retries:1 ~point_fuel:2
         ~checkpoint:path ?resume prepared space)
  in
  let fresh = run 1 in
  let journal = read_file path in
  let lines = String.split_on_char '\n' journal in
  (* header, then the first platform's four points and two of the
     second's *)
  let kept = List.filteri (fun i _ -> i < 7) lines in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" kept ^ "\n"));
  List.iter
    (fun jobs ->
      Alcotest.(check (pair string string))
        (Printf.sprintf "resumed jobs=%d == fresh" jobs)
        fresh (run ~resume:true jobs);
      Alcotest.(check string)
        (Printf.sprintf "journal after resume jobs=%d == fresh journal" jobs)
        journal (read_file path);
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.concat "\n" kept ^ "\n")))
    [ 1; 3 ];
  Sys.remove path

(* A sweep interrupted partway leaves every platform answered so far in
   its journal, and resumes to the fresh run.  The interrupt is raised by
   the trace clock: a fresh run under a counting clock stamps every event
   with the index of its clock reading, which locates the reading to
   interrupt — the start of the third platform, then the first kernel
   move after it, deep inside a point's evaluation. *)
let test_interrupt_keeps_journal () =
  let module Sink = Hypar_obs.Sink in
  let module Event = Hypar_obs.Event in
  let prepared = Lazy.force matmul in
  let space = hardened_space prepared in
  let path = Filename.temp_file "hypar-explore" ".journal" in
  let render = function
    | Error e -> Alcotest.fail e
    | Ok s -> (Render.csv s, Render.json s)
  in
  let run ?resume jobs =
    Driver.run ~jobs ~faults:hardened_faults ~retries:1 ~point_fuel:2
      ~checkpoint:path ?resume prepared space
  in
  let traced clock f =
    Sink.clear ();
    Sink.enable ();
    Fun.protect
      ~finally:(fun () ->
        Sink.disable ();
        Sink.clear ())
      (fun () -> Sink.with_clock clock f)
  in
  let fresh, events =
    traced (Hypar_obs.Clock.counter ()) (fun () ->
        let r = render (run 1) in
        (r, Sink.events ()))
  in
  let journal = read_file path in
  let stamps name begin_ =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Begin _ when begin_ && e.Event.name = name -> Some e.Event.ts
        | Event.End when (not begin_) && e.Event.name = name -> Some e.Event.ts
        | _ -> None)
      events
  in
  let third_platform = List.nth (stamps "explore.platform" true) 2 in
  let next_move =
    List.find (fun ts -> ts > third_platform) (stamps "engine.move" true)
  in
  List.iter
    (fun at ->
      let readings = ref 0. in
      let interrupting () =
        let ts = !readings in
        readings := ts +. 1.;
        if ts = at then raise Sys.Break;
        ts
      in
      (match traced interrupting (fun () -> run 1) with
      | _ -> Alcotest.fail "the sweep was not interrupted"
      | exception Sys.Break -> ());
      (* the header, then four points per platform finished before *)
      let finished =
        List.length
          (List.filter (fun ts -> ts < at) (stamps "explore.platform" false))
      in
      Alcotest.(check bool) "platforms finished" true (finished >= 2);
      let interrupted = read_file path in
      Alcotest.(check string)
        (Printf.sprintf "%d platforms journalled" finished)
        (String.split_on_char '\n' journal
        |> List.filteri (fun i _ -> i <= 4 * finished)
        |> List.map (fun l -> l ^ "\n")
        |> String.concat "")
        interrupted;
      List.iter
        (fun jobs ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc interrupted);
          Alcotest.(check (pair string string))
            (Printf.sprintf "resumed jobs=%d == fresh" jobs)
            fresh
            (render (run ~resume:true jobs));
          Alcotest.(check string)
            (Printf.sprintf "journal after resume jobs=%d == fresh journal" jobs)
            journal (read_file path))
        [ 1; 3 ])
    [ third_platform; next_move ];
  Sys.remove path

(* A duplicated axis value: each configuration is evaluated once, and
   every later copy is a hit marked [cached] — the same counts and flags
   as deduplicating on the [<digest>|<point_key>] string.  A checkpoint
   cut after two of its points resumes to the fresh run's outputs and
   journal at every [jobs]. *)
let test_duplicate_axis_resume () =
  let prepared = Lazy.force matmul in
  let t = budget prepared in
  let space =
    Space.make ~areas:[ 500; 1500; 500 ] ~cgcs:[ 1; 2 ]
      ~timings:[ t; t / 2; t ] ()
  in
  let path = Filename.temp_file "hypar-explore" ".journal" in
  let run ?checkpoint ?resume jobs =
    match Driver.run ~jobs ~workload:"matmul8" ?checkpoint ?resume prepared space with
    | Error e -> Alcotest.fail e
    | Ok s -> s
  in
  let renders s =
    [ Render.text s; Render.csv s; Render.json s; Render.markdown s;
      Render.text ~pareto_only:true s ]
  in
  let fresh = run 1 in
  let keys =
    Array.to_list
      (Array.map
         (fun (r : Driver.point_result) ->
           Cache.key ~digest:(Lazy.force fresh.Driver.digest) r.Driver.point)
         fresh.Driver.results)
  in
  let expected_cached =
    List.mapi (fun i k -> List.mem k (List.filteri (fun j _ -> j < i) keys)) keys
  in
  let distinct = List.length (List.sort_uniq compare keys) in
  Alcotest.(check int) "eighteen points" 18 (List.length keys);
  Alcotest.(check int) "misses: distinct keys" distinct fresh.Driver.cache.Cache.misses;
  Alcotest.(check int) "hits: repeated keys" (18 - distinct)
    fresh.Driver.cache.Cache.hits;
  Alcotest.(check (list bool)) "cached: key seen before" expected_cached
    (Array.to_list
       (Array.map (fun (r : Driver.point_result) -> r.Driver.cached) fresh.Driver.results));
  let _ = run ~checkpoint:path 1 in
  let journal = read_file path in
  let kept =
    String.split_on_char '\n' journal |> List.filteri (fun i _ -> i < 3)
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d == jobs=1" jobs)
        (renders fresh) (renders (run jobs));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.concat "\n" kept ^ "\n"));
      let resumed = run ~checkpoint:path ~resume:true jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "resumed jobs=%d == fresh" jobs)
        (renders fresh) (renders resumed);
      Alcotest.(check (pair int int))
        (Printf.sprintf "resumed jobs=%d: hits and misses" jobs)
        (fresh.Driver.cache.Cache.hits, fresh.Driver.cache.Cache.misses)
        (resumed.Driver.cache.Cache.hits, resumed.Driver.cache.Cache.misses);
      Alcotest.(check string)
        (Printf.sprintf "journal after resume jobs=%d == fresh journal" jobs)
        journal (read_file path))
    [ 1; 4 ];
  Sys.remove path

let test_best_and_frontier_sane () =
  let prepared = Lazy.force matmul in
  let t = budget prepared in
  let space =
    Space.make ~areas:[ 500; 1500; 5000 ] ~cgcs:[ 1; 2 ] ~timings:[ t ] ()
  in
  match Driver.run prepared space with
  | Error e -> Alcotest.fail e
  | Ok s ->
    let n = Array.length s.Driver.results in
    Alcotest.(check int) "six points" 6 n;
    Alcotest.(check bool) "frontier non-empty" true
      (Array.exists (fun f -> f) s.Driver.pareto);
    (match s.Driver.best_time with
    | None -> Alcotest.fail "best t_total missing"
    | Some i -> (
      match s.Driver.results.(i).Driver.outcome with
      | Error _ -> Alcotest.fail "best points to a failed result"
      | Ok best ->
        Array.iter
          (fun (r : Driver.point_result) ->
            match r.Driver.outcome with
            | Ok m when m.Eval.met ->
              Alcotest.(check bool) "best t_total minimal among met" true
                (best.Eval.final.Engine.t_total
                <= m.Eval.final.Engine.t_total)
            | _ -> ())
          s.Driver.results))

(* The digest is computed only when read: a sweep that writes no
   checkpoint and renders no JSON never computes it, the JSON report
   carries [Cache.digest_of_cdfg] of the prepared CDFG, and every
   checkpoint key is still [<digest>|<point_key>]. *)
let test_digest_when_read () =
  let prepared = Lazy.force matmul in
  let t = budget prepared in
  let space = Space.make ~areas:[ 500; 1500 ] ~cgcs:[ 1; 2 ] ~timings:[ t ] () in
  let digest = Cache.digest_of_cdfg prepared.Flow.cdfg in
  let run ?checkpoint () =
    match Driver.run ?checkpoint prepared space with
    | Error e -> Alcotest.fail e
    | Ok s -> s
  in
  let s = run () in
  ignore (Render.text s, Render.csv s);
  Alcotest.(check bool) "text and CSV leave the digest unread" false
    (Lazy.is_val s.Driver.digest);
  let line = Printf.sprintf "\"digest\": \"%s\"," digest in
  Alcotest.(check bool) "the JSON report names Cache.digest_of_cdfg" true
    (List.mem ("  " ^ line) (String.split_on_char '\n' (Render.json s)));
  let path = Filename.temp_file "hypar-explore" ".journal" in
  ignore (run ~checkpoint:path ());
  let keys =
    match Hypar_explore.Checkpoint.load path with
    | Error e -> Alcotest.fail e
    | Ok entries -> List.map fst entries
  in
  Sys.remove path;
  Alcotest.(check (list string)) "checkpoint keys"
    (Array.to_list
       (Array.map
          (fun (r : Driver.point_result) ->
            digest ^ "|" ^ Space.point_key r.Driver.point)
          s.Driver.results))
    keys

let suite =
  [
    Alcotest.test_case "axis parsing" `Quick test_axis_parsing;
    Alcotest.test_case "axis errors" `Quick test_axis_errors;
    Alcotest.test_case "space bounds" `Quick test_space_bounds;
    Alcotest.test_case "enumeration order" `Quick test_enumeration_order;
    Alcotest.test_case "pareto dominance" `Quick test_pareto_dominance;
    Alcotest.test_case "pareto frontier" `Quick test_pareto_frontier;
    Alcotest.test_case "pareto best_by" `Quick test_pareto_best_by;
    QCheck_alcotest.to_alcotest prop_frontier_flags_naive;
    Alcotest.test_case "pool matches sequential" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool joins before raising" `Quick
      test_pool_joins_before_raising;
    Alcotest.test_case "pool workers capped" `Quick test_pool_workers_capped;
    Alcotest.test_case "point key stable" `Quick test_point_key_stable;
    Alcotest.test_case "digest stable" `Quick test_digest_stable_across_compiles;
    Alcotest.test_case "cache counters" `Quick test_cache_counters;
    Alcotest.test_case "duplicates hit cache" `Quick test_duplicate_configs_hit_cache;
    Alcotest.test_case "failed point recorded" `Quick test_failed_point_recorded;
    Alcotest.test_case "all points failed" `Quick test_all_failed;
    Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
    Alcotest.test_case "jobs determinism: faults, retries, fuel" `Quick
      test_jobs_determinism_hardened;
    Alcotest.test_case "resume mid-platform" `Quick test_resume_mid_platform;
    Alcotest.test_case "interrupt keeps journal" `Quick
      test_interrupt_keeps_journal;
    Alcotest.test_case "duplicated axis value: cache and resume" `Quick
      test_duplicate_axis_resume;
    Alcotest.test_case "best + frontier sane" `Quick test_best_and_frontier_sane;
    Alcotest.test_case "digest computed when read" `Quick test_digest_when_read;
  ]
