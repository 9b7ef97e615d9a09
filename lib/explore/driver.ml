module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform
module Fault = Hypar_resilience.Fault
module Retry = Hypar_resilience.Retry
module Journal = Hypar_resilience.Journal
module Pool = Hypar_obs.Pool

type point_result = {
  point : Space.point;
  outcome : (Eval.metrics, string) result;
  cached : bool;
}

type t = {
  workload : string;
  digest : string Lazy.t;
  jobs : int;
  results : point_result array;
  cache : Cache.stats;
  pareto : bool array;
  best_time : int option;
  best_area : int option;
  best_energy : int option;
}

let ok_count t =
  Array.fold_left
    (fun n r -> if Result.is_ok r.outcome then n + 1 else n)
    0 t.results

let failed_count t = Array.length t.results - ok_count t
let all_failed t = Array.length t.results > 0 && ok_count t = 0

(* analysis over the successful points only: frontier flags mapped back to
   result indices, plus one best index per objective (met points first) *)
let analyse results =
  let ok =
    Array.to_list results
    |> List.mapi (fun i r -> (i, r.outcome))
    |> List.filter_map (function i, Ok m -> Some (i, m) | _, Error _ -> None)
    |> Array.of_list
  in
  let n = Array.length results in
  let pareto = Array.make n false in
  let objectives (i, (m : Eval.metrics)) =
    [| results.(i).point.Space.area; m.Eval.final.Hypar_core.Engine.t_total; m.Eval.energy |]
  in
  Array.iteri
    (fun k flag -> if flag then pareto.(fst ok.(k)) <- true)
    (Pareto.frontier_flags objectives ok);
  let candidates =
    let met = Array.of_list (List.filter (fun (_, m) -> m.Eval.met) (Array.to_list ok)) in
    if Array.length met > 0 then met else ok
  in
  let best f =
    Option.map (fun k -> fst candidates.(k)) (Pareto.best_by f candidates)
  in
  ( pareto,
    best (fun (_, m) -> m.Eval.final.Hypar_core.Engine.t_total),
    best (fun (i, _) -> results.(i).point.Space.area),
    best (fun (_, m) -> m.Eval.energy) )

(* A [Pool.map] whose per-item trace events are captured in the worker
   and replayed in item order, so the merged trace is the same for every
   [jobs] (modulo timestamps). *)
let traced_map ~jobs f xs =
  if not (Hypar_obs.Sink.enabled ()) then Pool.map ~jobs f xs
  else
    Pool.map ~jobs (fun x -> Hypar_obs.Sink.collect (fun () -> f x)) xs
    |> Array.map (fun (y, events) ->
           Hypar_obs.Sink.replay events;
           y)

(* an interrupt aborts the sweep; any other exception is the outcome *)
let attempt f x =
  match f x with
  | y -> Ok y
  | exception Sys.Break -> raise Sys.Break
  | exception e -> Error e

(* Computes [f] once per distinct key, in parallel, and returns the
   lookup from a key to its outcome. *)
let memo_map ~jobs f keys =
  let distinct = Array.of_list (List.sort_uniq compare keys) in
  let outcomes = Hashtbl.create 8 in
  Array.iter2 (Hashtbl.replace outcomes) distinct
    (traced_map ~jobs (attempt f) distinct);
  Hashtbl.find outcomes

(* Every fresh point's outcome, in two stages, each a deterministic
   [Pool.map]:

   1. once per sweep the IR check of the engine input, the application
      layer (one liveness analysis) and the kernel analysis; then the
      fine-grain layer and its energy table once per distinct FPGA, and
      the coarse-grain layer and the greedy loop's move plan once per
      distinct CGC x health;
   2. per distinct platform, one task: its greedy trajectory along the
      plan of its coarse layer, and each of its points, with retries,
      answered by a cut of that trajectory and an energy sum.  A
      trajectory is extended lazily, so it is only ever touched by its
      own platform's task; a plan is only read.

   Stage 2 runs over groups of [jobs] platforms, in order of each
   platform's first point.  [record] sees every point of a group as soon
   as the group is answered, platform by platform, points in enumeration
   order: the same sequence for every [jobs], available before the sweep
   ends. *)
let evaluate_points ~jobs ?faults ~retries ?point_fuel ~record
    (prepared : Flow.prepared) (points : Space.point array) =
  let platform_key (p : Space.point) =
    (p.Space.area, p.cgcs, p.rows, p.cols, p.clock_ratio)
  in
  (* each distinct platform with the indices of its points *)
  let index = Hashtbl.create 16 and groups = ref [] in
  Array.iteri
    (fun j p ->
      let k = platform_key p in
      match Hashtbl.find_opt index k with
      | Some members -> members := j :: !members
      | None ->
        let members = ref [ j ] in
        Hashtbl.add index k members;
        groups := (p, members) :: !groups)
    points;
  let platforms =
    Array.of_list
      (List.rev_map (fun (p, members) -> (p, Array.of_list (List.rev !members)))
         !groups)
  in
  let app =
    attempt
      (fun () ->
        Eval.verify_input prepared;
        let cdfg = prepared.Flow.cdfg and profile = prepared.Flow.profile in
        (Engine.app_layer cdfg profile, Hypar_analysis.Kernel.analyse cdfg profile))
      ()
  in
  let built = Array.map (fun (p, _) -> attempt (Eval.platform ?faults) p) platforms in
  let healthy =
    if Result.is_error app then []
    else List.filter_map Result.to_option (Array.to_list built)
  in
  let int v = Hypar_obs.Event.Int v in
  let fine =
    memo_map ~jobs
      (fun (fpga : Hypar_finegrain.Fpga.t) ->
        Hypar_obs.Span.with_ ~cat:"explore" "explore.fine"
          ~args:[ ("area", int fpga.area) ]
        @@ fun () ->
        let app = fst (Result.get_ok app) in
        let fine = Engine.fine_layer app fpga in
        (fine, Eval.energy_table app fine))
      (List.map (fun (pl : Platform.t) -> pl.fpga) healthy)
  in
  let coarse =
    memo_map ~jobs
      (fun ((cgc : Hypar_coarsegrain.Cgc.t), health) ->
        Hypar_obs.Span.with_ ~cat:"explore" "explore.coarse"
          ~args:
            [ ("cgcs", int cgc.cgcs); ("rows", int cgc.rows);
              ("cols", int cgc.cols) ]
        @@ fun () ->
        let app, analysis = Result.get_ok app in
        let coarse = Engine.coarse_layer app cgc health in
        (coarse, Engine.plan ~analysis app coarse))
      (List.map (fun (pl : Platform.t) -> (pl.cgc, pl.cgc_health)) healthy)
  in
  (* one attempt of one point, with transient-fault injection: the
     injected failures are a pure function of (seed, point, attempt), so
     a retried — or resumed — sweep stays deterministic *)
  let attempt_point shared p attempt =
    match faults with
    | Some spec
      when Fault.transient_should_fail spec ~key:(Space.point_key p) ~attempt ->
      Hypar_obs.Counter.incr "resilience.fault.transient";
      Error
        (Printf.sprintf "injected transient fault (attempt %d) [point %s]"
           attempt (Space.point_key p))
    | _ -> Eval.answer ?point_fuel shared p
  in
  let platform_span (p : Space.point) f =
    if Hypar_obs.Sink.enabled () then
      Hypar_obs.Span.with_ ~cat:"explore" "explore.platform"
        ~args:
          [
            ("area", int p.Space.area);
            ("cgcs", int p.cgcs);
            ("rows", int p.rows);
            ("cols", int p.cols);
            ("clock_ratio", int p.clock_ratio);
          ]
        f
    else f ()
  in
  let answer_platform i =
    let p, members = platforms.(i) in
    platform_span p @@ fun () ->
    let shared =
      Result.bind app @@ fun (app, _) ->
      Result.bind built.(i) @@ fun (pl : Platform.t) ->
      Result.bind (fine pl.fpga) @@ fun (fine, energy) ->
      Result.bind (coarse (pl.cgc, pl.cgc_health)) @@ fun (coarse, plan) ->
      attempt
        (fun () ->
          Eval.share ~plan ~energy (Engine.assemble app fine coarse pl))
        ()
    in
    Array.map
      (fun j -> Retry.run ~retries (attempt_point shared points.(j)))
      members
  in
  let outcomes = Array.make (Array.length points) None in
  let n = Array.length platforms and width = max 1 jobs in
  let rec from first =
    if first < n then begin
      let group = Array.init (min width (n - first)) (fun k -> first + k) in
      Array.iter2
        (fun i answered ->
          Array.iter2
            (fun j outcome ->
              outcomes.(j) <- Some outcome;
              record points.(j) outcome)
            (snd platforms.(i)) answered)
        group
        (traced_map ~jobs answer_platform group);
      from (first + Array.length group)
    end
  in
  from 0;
  Array.map Option.get outcomes

exception Checkpoint_error of string

let run ?(jobs = 1) ?workload ?faults ?(retries = 0) ?point_fuel ?checkpoint
    ?(resume = false) (prepared : Flow.prepared) space =
  Hypar_obs.Span.with_ ~cat:"explore" "explore.run" @@ fun () ->
  try
    match Space.points space with
    | Error _ as e -> e
    | Ok pts ->
    let workload =
      match workload with
      | Some w -> w
      | None -> Hypar_ir.Cdfg.name prepared.Flow.cdfg
    in
    (* only checkpoint keys and the JSON report read the digest *)
    let digest = lazy (Cache.digest_of_cdfg prepared.Flow.cdfg) in
    let cache = Cache.create () in
    (* deduplicate before fanning out: the cache maps each configuration
       to the index of its unique evaluation job *)
    let unique = ref [] in
    let n_unique = ref 0 in
    let slots =
      List.map
        (fun p ->
          match Cache.find cache p with
          | Some j ->
            Hypar_obs.Counter.incr "explore.cache_hits";
            (p, j, true)
          | None ->
            Hypar_obs.Counter.incr "explore.cache_misses";
            let j = !n_unique in
            incr n_unique;
            unique := p :: !unique;
            Cache.add cache p j;
            (p, j, false))
        pts
    in
    let unique = Array.of_list (List.rev !unique) in
    (* crash recovery: outcomes journalled by an interrupted run are
       restored by checkpoint key and their points never re-evaluated;
       without --resume no key is built *)
    let restore =
      match checkpoint with
      | Some path when resume -> (
        match Checkpoint.load path with
        | Ok entries ->
          let restored = Hashtbl.create 16 in
          List.iter (fun (k, outcome) -> Hashtbl.replace restored k outcome) entries;
          fun p ->
            Hashtbl.find_opt restored (Cache.key ~digest:(Lazy.force digest) p)
        | Error msg -> raise (Checkpoint_error msg))
      | Some _ | None -> fun _ -> None
    in
    let journal =
      match checkpoint with
      | None -> None
      | Some path -> (
        match Journal.create ~resume ~header:Checkpoint.header path with
        | Ok j -> Some j
        | Error msg -> raise (Checkpoint_error msg))
    in
    let resumed = Array.map restore unique in
    let fresh =
      Array.of_list
        (List.filteri
           (fun j _ -> resumed.(j) = None)
           (Array.to_list unique))
    in
    let n_resumed = Array.length unique - Array.length fresh in
    if n_resumed > 0 then
      Hypar_obs.Counter.incr ~by:n_resumed "explore.resumed_points";
    (* close the journal even when an evaluation raises (Sys.Break from an
       interactive interrupt included): every platform answered so far is
       already journalled and flushed, so an interrupted sweep leaves a
       resumable file behind *)
    let record p outcome =
      Option.iter
        (fun j ->
          Journal.append j
            (Checkpoint.encode
               ~key:(Cache.key ~digest:(Lazy.force digest) p)
               outcome))
        journal
    in
    let fresh_outcomes =
      Fun.protect
        ~finally:(fun () -> Option.iter Journal.close journal)
        (fun () ->
          evaluate_points ~jobs ?faults ~retries ?point_fuel ~record prepared
            fresh)
    in
    let outcomes =
      let next = ref 0 in
      Array.map
        (function
          | Some outcome -> outcome
          | None ->
            let o = fresh_outcomes.(!next) in
            incr next;
            o)
        resumed
    in
    let results =
      Array.of_list
        (List.map
           (fun (point, j, cached) -> { point; outcome = outcomes.(j); cached })
           slots)
    in
    let pareto, best_time, best_area, best_energy = analyse results in
    Ok
      {
        workload;
        digest;
        jobs;
        results;
        cache = Cache.stats cache;
        pareto;
        best_time;
        best_area;
        best_energy;
      }
  with Checkpoint_error msg -> Error msg
