(* paper_flow: the paper's own experiment.  One op prepares OFDM, JPEG,
   Sobel and ADPCM on seeded inputs (frontend, optimizer, profiler) and
   partitions each on the four Tables 2-3 platforms. *)

module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform

type counts = {
  instrs_out : int;
  instrs_executed : int;
  engine_moves : int;
  characterisations : int;
  final_cycles : int list;
}

type env = {
  apps : Apps.t list;
  platforms : Platform.t list;
  mutable kept : (Apps.t * Flow.prepared * Engine.t list) list;
      (* the first op's results: every later op must match its counts *)
  mutable files : (Apps.t * string * string) list;
      (* source file for the served batch and bytecode, per app *)
}

let setup ~seed =
  {
    apps = Apps.seeded seed;
    platforms = Platform.paper_configs ();
    kept = [];
    files = [];
  }

let teardown _ = ()

let flow env =
  List.map
    (fun (app : Apps.t) ->
      let p = Flow.prepare ~name:app.name ~inputs:app.inputs app.source in
      let runs =
        List.map
          (fun pl -> Flow.partition pl ~timing_constraint:app.timing_constraint p)
          env.platforms
      in
      (app, p, runs))
    env.apps

let counts results =
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 results in
  let runs = List.concat_map (fun (_, _, runs) -> runs) results in
  {
    instrs_out = sum (fun (_, (p : Flow.prepared), _) -> Hypar_ir.Cdfg.total_instrs p.cdfg);
    instrs_executed = sum (fun (_, (p : Flow.prepared), _) -> p.interp.instrs_executed);
    engine_moves = List.fold_left (fun acc (r : Engine.t) -> acc + List.length r.steps) 0 runs;
    characterisations = List.length runs;
    final_cycles = List.map (fun (r : Engine.t) -> r.final.t_total) runs;
  }

(* One timed op; records itself and returns its latency. *)
let op env tally () =
  let results, latency_ms = Tally.time (fun () -> flow env) in
  if env.kept = [] then env.kept <- results;
  let wrong =
    List.filter_map
      (fun ((app : Apps.t), (p : Flow.prepared), _) ->
        if app.matches_reference p.interp then None else Some app.name)
      results
  in
  Tally.record tally ~latency_ms
    (if wrong <> [] then
       Some (String.concat "," wrong ^ ": outputs differ from the reference model")
     else if counts results <> counts env.kept then
       Some "exact counts differ from the first op's"
     else None);
  latency_ms

let timed env tally = Tally.closed_loop tally (fun () -> ignore (op env tally ()))

let final_cycles env = (counts env.kept).final_cycles

(* Eq. 2 recomputed from scratch for every partition of the first op
   ([Engine.evaluate], the full-recompute oracle), then the pinned
   Tables 2-3. *)
let verify env =
  let recompute =
    List.concat_map
      (fun ((app : Apps.t), (p : Flow.prepared), runs) ->
        List.filter_map
          (fun (r : Engine.t) ->
            let t = Engine.evaluate r.platform p.cdfg p.profile r.moved in
            if t = r.final then None
            else
              Some
                (Printf.sprintf "%s on %s: engine final %d, Eq. 2 recompute %d"
                   app.name (Paper.label r.platform) r.final.t_total t.t_total))
          runs)
      env.kept
  in
  let paper = Paper.check (Paper.load "perfbench/expected.json") in
  (recompute @ paper.mismatches, paper.report)

let traced_op env tally _layers () = [ op env tally () ]

(* Every layer on this op's programs: the flow one public call at a
   time (checked against the op's final cycles), bytecode of the same
   programs, the 16 partitions as an explore sweep, and as served
   requests. *)
let layer_pass env layers tally =
  if env.files = [] then
    env.files <-
      List.map
        (fun (app : Apps.t) ->
          let raw = Hypar_minic.Driver.compile_exn ~name:app.name ~simplify:false app.source in
          (app, Work.write (app.name ^ ".mc") app.source, Hypar_bytecode.Emit.to_string raw))
        env.apps;
  let finals, swept =
    List.split
      (List.map
         (fun ((app : Apps.t), _, hbc) ->
           let cdfg = Calls.optimize layers (Calls.minic layers ~name:app.name app.source) in
           let p = Calls.profile layers ~inputs:app.inputs cdfg in
           Calls.kernels layers p;
           let finals =
             List.map
               (fun pl ->
                 (Calls.partition layers pl ~timing_constraint:app.timing_constraint p).final.t_total)
               env.platforms
           in
           ignore (Calls.bytecode layers ~name:app.name hbc);
           let space =
             Hypar_explore.Space.make ~areas:[ 1500; 5000 ] ~cgcs:[ 2; 3 ]
               ~timings:[ app.timing_constraint ] ()
           in
           (finals, Calls.sweep_finals (Calls.explore layers p space)))
         env.files)
  in
  let finals = List.concat finals in
  Layers.add layers "core.distinct_platforms" (float_of_int (List.length finals));
  Tally.record tally
    (if finals <> final_cycles env then
       Some "per-layer calls disagree with Flow on the final cycles"
     else if List.concat swept <> List.map Result.ok finals then
       Some "explore sweep disagrees with Flow on the final cycles"
     else None);
  let bodies =
    List.concat_map
      (fun ((app : Apps.t), file, _) ->
        List.map
          (fun (pl : Platform.t) ->
            Printf.sprintf {|"verb":"partition","file":"%s","timing":%d,"area":%d,"cgcs":%d|}
              file app.timing_constraint pl.fpga.area pl.cgc.cgcs)
          env.platforms)
      env.files
  in
  Serve_client.check_batch tally (Serve_client.batch ~layers bodies)
