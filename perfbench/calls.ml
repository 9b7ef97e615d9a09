(* Each layer's public entry point, timed into the current pass of a
   traced run.  Together they redo what Flow.prepare, Flow.partition and
   the serve verbs do, one layer at a time. *)

module Ir = Hypar_ir
module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform

let optimize layers raw =
  let cdfg = Layers.time layers "ir.optimize_ms" (fun () -> Ir.Passes.optimize raw) in
  Layers.add layers "ir.instrs_out" (float_of_int (Ir.Cdfg.total_instrs cdfg));
  cdfg

(* The two frontends without their clean-up passes; [optimize] after
   either gives the CDFG its [compile_exn] returns. *)
let minic layers ~name source =
  Layers.time layers "minic.compile_ms" (fun () ->
      Hypar_minic.Driver.compile_exn ~name ~simplify:false source)

let bytecode layers ~name text =
  Layers.time layers "bytecode.compile_ms" (fun () ->
      Hypar_bytecode.Driver.compile_exn ~name ~optimize:false text)

let profile layers ?inputs cdfg =
  let interp =
    Layers.time layers "profiling.run_ms" (fun () ->
        Hypar_profiling.Profile.run ?inputs cdfg)
  in
  Layers.add layers "profiling.instrs_executed"
    (float_of_int interp.Hypar_profiling.Interp.instrs_executed);
  { Flow.cdfg; profile = Hypar_profiling.Profile.of_result cdfg interp; interp }

let kernels layers (p : Flow.prepared) =
  ignore
    (Layers.time layers "analysis.kernels_ms" (fun () ->
         Hypar_analysis.Kernel.analyse p.cdfg p.profile))

(* The characterisation steps [Engine.run] performs, each on its own,
   then [Engine.run] itself. *)
let partition layers (pl : Platform.t) ~timing_constraint (p : Flow.prepared) =
  ignore
    (Layers.time layers "finegrain.map_ms" (fun () ->
         Hypar_finegrain.Fine_map.map_cdfg pl.fpga p.cdfg));
  Layers.time layers "coarsegrain.map_ms" (fun () ->
      List.iter
        (fun i ->
          ignore
            (Hypar_coarsegrain.Coarse_map.map_block ?health:pl.cgc_health pl.cgc
               p.cdfg i))
        (Ir.Cdfg.block_ids p.cdfg));
  ignore
    (Layers.time layers "core.characterise_ms" (fun () ->
         Engine.Inc.create pl p.cdfg p.profile));
  Layers.time layers "core.engine_ms" (fun () ->
      Engine.run pl ~timing_constraint p.cdfg p.profile)

let explore layers (p : Flow.prepared) space =
  match
    Layers.time layers "explore.run_ms" (fun () -> Hypar_explore.Driver.run p space)
  with
  | Error e -> failwith ("explore: " ^ e)
  | Ok (summary : Hypar_explore.Driver.t) ->
    Layers.add layers "explore.points" (float_of_int (Array.length summary.results));
    Layers.add layers "explore.cache_hits" (float_of_int summary.cache.hits);
    summary

(* Final Eq.-2 cycles of every point of a sweep, in point order. *)
let sweep_finals (summary : Hypar_explore.Driver.t) =
  Array.to_list summary.results
  |> List.map (fun (r : Hypar_explore.Driver.point_result) ->
         match r.outcome with
         | Ok m -> Ok m.Hypar_explore.Eval.final.t_total
         | Error e -> Error e)
