(* explore_sweep: a design-space sweep over one prepared application.
   JPEG is compiled and profiled once, in set-up; one op is one
   [Driver.run ~jobs:1] over 6 FPGA areas x 1-3 CGCs x 8 timing
   constraints — 144 points on 18 distinct platforms, with constraints
   from infeasible to met without partitioning.  The frontend and
   profiler do no work in an op; characterisation and the engine do it
   all. *)

module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Space = Hypar_explore.Space
module Driver = Hypar_explore.Driver
module Eval = Hypar_explore.Eval

let areas = [ 500; 1400; 2300; 3200; 4100; 5000 ]
let cgcs = [ 1; 2; 3 ]

let timings =
  [ 500_000; 1_000_000; 2_000_000; 6_000_000; 11_000_000; 20_000_000;
    26_000_000; 45_000_000 ]

let space = Space.make ~areas ~cgcs ~timings ()

type env = {
  app : Apps.t;
  prepared : Flow.prepared;
  mutable kept : Driver.t option;
      (* the first op's summary: every later sweep must match it *)
  mutable files : (string * string) option;
      (* JPEG source file for the served request, and its bytecode *)
}

let setup ~seed =
  let app = Apps.jpeg ~seed:(Apps.draw_seed (Random.State.make [| seed |])) () in
  {
    app;
    prepared = Flow.prepare ~name:app.name ~inputs:app.inputs app.source;
    kept = None;
    files = None;
  }

let teardown _ = ()

let outcomes (s : Driver.t) =
  Array.to_list (Array.map (fun (r : Driver.point_result) -> r.outcome) s.results)

let op env tally () =
  let summary, latency_ms =
    Tally.time (fun () -> Driver.run ~jobs:1 env.prepared space)
  in
  (match summary with
  | Error e -> Tally.record tally ~latency_ms (Some ("sweep refused: " ^ e))
  | Ok s ->
    let first = match env.kept with Some k -> k | None -> env.kept <- Some s; s in
    Tally.record tally ~latency_ms
      (if Driver.failed_count s > 0 then
         Some (Printf.sprintf "%d sweep points failed" (Driver.failed_count s))
       else if outcomes s <> outcomes first then
         Some "sweep results differ from the first op's"
       else None));
  latency_ms

let timed env tally = Tally.closed_loop tally (fun () -> ignore (op env tally ()))

let final_cycles env =
  match env.kept with
  | None -> []
  | Some s ->
    List.filter_map
      (function Ok (m : Eval.metrics) -> Some m.final.t_total | Error _ -> None)
      (outcomes s)

(* Every point of the first sweep against the full Eq.-2 recompute, its
   met flag against its constraint, and the set-up's JPEG outputs
   against the reference encoder. *)
let verify env =
  match env.kept with
  | None -> ([ "no sweep completed" ], [])
  | Some s ->
    let p = env.prepared in
    let problems =
      List.filter_map
        (fun (r : Driver.point_result) ->
          match r.outcome with
          | Error e -> Some e
          | Ok m ->
            let t = Engine.evaluate (Eval.platform_of r.point) p.cdfg p.profile m.moved in
            if t <> m.final then
              Some (Printf.sprintf "%s: final %d, Eq. 2 recompute %d"
                      (Space.point_key r.point) m.final.t_total t.t_total)
            else if m.met <> (m.final.t_total <= r.point.timing) then
              Some (Space.point_key r.point ^ ": met flag disagrees with its constraint")
            else None)
        (Array.to_list s.results)
    in
    let reference =
      if env.app.matches_reference p.interp then []
      else [ "set-up JPEG outputs differ from the reference encoder" ]
    in
    let status (r : Driver.point_result) =
      match r.outcome with
      | Ok { status = Engine.Met_without_partitioning; _ } -> "met-without-partitioning"
      | Ok { status = Engine.Met_after _; _ } -> "met-after-moves"
      | Ok { status = Engine.Infeasible; _ } -> "infeasible"
      | Error _ -> "failed"
    in
    let per_timing t =
      let here = List.filter (fun (r : Driver.point_result) -> r.point.timing = t) (Array.to_list s.results) in
      List.map status here |> List.sort_uniq compare
      |> List.map (fun st -> Printf.sprintf "%s %d" st (List.length (List.filter (fun r -> status r = st) here)))
      |> String.concat ", " |> Printf.sprintf "constraint %d: %s" t
    in
    (problems @ reference, List.map per_timing timings)

let traced_op env tally _layers () = [ op env tally () ]

let axis l = String.concat "," (List.map string_of_int l)

(* Set-up's layers on JPEG (checked against the set-up's CDFG and
   profile), the sweep's 144 partitions one public call at a time
   (checked against the op's final cycles), the sweep itself, and the
   sweep as one served [explore] request. *)
let layer_pass env layers tally =
  let app = env.app in
  let file, hbc =
    match env.files with
    | Some f -> f
    | None ->
      let raw = Hypar_minic.Driver.compile_exn ~name:app.name ~simplify:false app.source in
      let f = (Work.write "jpeg.mc" app.source, Hypar_bytecode.Emit.to_string raw) in
      env.files <- Some f;
      f
  in
  let cdfg = Calls.optimize layers (Calls.minic layers ~name:app.name app.source) in
  let p = Calls.profile layers ~inputs:app.inputs cdfg in
  Calls.kernels layers p;
  ignore (Calls.bytecode layers ~name:app.name hbc);
  let points = Result.get_ok (Space.points space) in
  let finals =
    List.map
      (fun (pt : Space.point) ->
        Ok (Calls.partition layers (Eval.platform_of pt) ~timing_constraint:pt.timing p).final.t_total)
      points
  in
  let swept = Calls.sweep_finals (Calls.explore layers p space) in
  Layers.add layers "core.distinct_platforms"
    (float_of_int (List.length (List.sort_uniq compare (List.map (fun (pt : Space.point) -> (pt.area, pt.cgcs)) points))));
  let expected = List.map Result.ok (final_cycles env) in
  Tally.record tally
    (if Hypar_ir.Cdfg.total_instrs p.cdfg <> Hypar_ir.Cdfg.total_instrs env.prepared.cdfg
        || p.interp.instrs_executed <> env.prepared.interp.instrs_executed
     then Some "per-layer calls disagree with Flow.prepare"
     else if finals <> expected || swept <> expected then
       Some "per-layer calls disagree with the sweep on the final cycles"
     else None);
  Serve_client.check_batch tally
    (Serve_client.batch ~layers
       [ Printf.sprintf {|"verb":"explore","file":"%s","areas":"%s","cgcs":"%s","timings":"%s"|}
           file (axis areas) (axis cgcs) (axis timings) ])
