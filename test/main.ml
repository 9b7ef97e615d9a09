(* every simplify/optimize in the whole suite runs under the IR invariant
   verifier (Hypar_ir.Verify); a pass that corrupts the IR fails loudly
   with the pass name rather than skewing downstream numbers *)
let () = Hypar_ir.Passes.verify_passes := true

(* likewise, every Engine.run in the suite cross-checks its delta-updated
   times against the full recharacterisation (Engine.Delta_mismatch) *)
let () = Hypar_core.Engine.check_incremental := true

let () =
  Alcotest.run "hypar"
    [
      ("types", Test_types.suite);
      ("instr", Test_instr.suite);
      ("dfg", Test_dfg.suite);
      ("ir_misc", Test_ir_misc.suite);
      ("cfg", Test_cfg.suite);
      ("loop", Test_loop.suite);
      ("live", Test_live.suite);
      ("dataflow", Test_dataflow.suite);
      ("serialize", Test_serialize.suite);
      ("passes", Test_passes.suite);
      ("verify", Test_verify.suite);
      ("opt", Test_opt.suite);
      ("licm", Test_licm.suite);
      ("cfg_simplify", Test_cfg_simplify.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("sugar", Test_sugar.suite);
      ("typecheck", Test_typecheck.suite);
      ("fuzz", Test_fuzz.suite);
      ("fuzzgen", Test_fuzzgen.suite);
      ("bytecode", Test_bytecode.suite);
      ("inline", Test_inline.suite);
      ("lower", Test_lower.suite);
      ("interp", Test_interp.suite);
      ("compile", Test_compile.suite);
      ("profile", Test_profile.suite);
      ("analysis", Test_analysis.suite);
      ("range", Test_range.suite);
      ("lint", Test_lint.suite);
      ("analyze", Test_analyze.suite);
      ("temporal", Test_temporal.suite);
      ("fine_map", Test_fine_map.suite);
      ("bitstream", Test_bitstream.suite);
      ("reconfig", Test_reconfig.suite);
      ("schedule", Test_schedule.suite);
      ("schedule_sim", Test_schedule_sim.suite);
      ("binding", Test_binding.suite);
      ("coarse_map", Test_coarse_map.suite);
      ("pricing", Test_pricing.suite);
      ("modulo", Test_modulo.suite);
      ("comm", Test_comm.suite);
      ("platform", Test_platform.suite);
      ("engine", Test_engine.suite);
      ("flow", Test_flow.suite);
      ("energy", Test_energy.suite);
      ("explore", Test_explore.suite);
      ("resilience", Test_resilience.suite);
      ("pipeline", Test_pipeline.suite);
      ("apps", Test_apps.suite);
      ("sobel", Test_sobel.suite);
      ("adpcm", Test_adpcm.suite);
      ("decode", Test_decode.suite);
      ("synth", Test_synth.suite);
      ("baselines", Test_baselines.suite);
      ("report", Test_report.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("server", Test_server.suite);
      ("soak", Test_soak.suite);
      ("properties", Test_props.suite);
    ]
