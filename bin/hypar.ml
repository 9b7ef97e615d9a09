(* hypar — command-line driver for the HYPAR partitioning framework.

   Subcommands:
     partition  run the full Figure-2 flow on a Mini-C (or .ir) file
                (--report for Markdown, --loops / --pipelined variants)
     kernels    print the Table-1 style kernel analysis
     analyze    IR diagnostics over the lowered CDFG (A001-A008:
                use-before-def, dead stores, unreachable blocks, constant
                branches, interval-derived out-of-bounds / div-by-zero,
                unhoisted invariant loads, write-only registers; text or
                JSON, --deny/--max-findings CI gates, -O to inspect the
                optimised IR)
     opt        run the optimisation pipeline and report the shrink
                (blocks/instrs before and after; -o FILE serialises the
                optimised CDFG)
     profile    print the dynamic profile of a program
     map        show both mappings per block (temporal partitions, Gantt)
     lint       source diagnostics (W001-W009; --deny for CI gates)
     baselines  compare kernel-selection strategies
     ranges     value-range / width-overflow analysis
     explore    design-space exploration (axis grids, --jobs N parallel
                evaluation, memo cache, Pareto frontier, text/csv/json/md;
                hardened: --faults/--retries/--point-fuel and a crash-safe
                --checkpoint FILE journal with --resume)
     faults     parse/print a fault specification and show the degraded
                platform it produces (see docs/resilience.md)
     dump       serialise the compiled CDFG (.ir)
     dot        emit the CFG (or one block's DFG) as Graphviz
     demo       reproduce the paper's Tables 2 and 3
     trace      validate and summarise a --trace output file
     fuzz       differential fuzzing: seeded well-formed Mini-C program
                generation, cross-backend/-frontend/-optimisation oracle
                matrix, auto-shrinking reproducers, replayable crash
                corpus (--corpus/--replay DIR, --jobs N, text/JSON
                report; see docs/fuzzing.md)
     serve      long-running JSON-lines batch service (stdin/stdout or
                --socket PATH): verbs partition/analyze/explore/faults/
                health, bounded queue with typed overloaded rejection,
                per-request deadlines (wall-clock + fuel), worker-domain
                pool (--jobs), graceful drain on SIGINT/SIGTERM; with
                --jobs > 1 (or --grace/--quarantine/--chaos) the pool is
                supervised: crashed/wedged workers respawn, failing
                requests are retried and ultimately quarantined with a
                typed poisoned envelope (see docs/server.md)
     soak       chaos soak campaign against an in-process supervised
                server: N seeded requests under --chaos (crashes,
                wedges, delays, dropped/truncated writes, slow-loris
                reads), asserting exactly-one-response, full pool
                healing and a jobs-independent response digest

   Most commands also take --trace FILE (Chrome trace_event JSON of the
   run; HYPAR_TRACE=FILE is an equivalent default) and --stats (per-stage
   timings and counters on stderr).

   partition and map accept --verify-ir to run the Hypar_ir.Verify
   structural checker on the IR before and after every pass.

   SIGINT anywhere outside serve raises Sys.Break (Sys.catch_break):
   cleanup handlers run — notably the explore --checkpoint journal is
   flushed and closed — and the process exits 130. *)

module Flow = Hypar_core.Flow
module Platform = Hypar_core.Platform
module Engine = Hypar_core.Engine
module Explore = Hypar_explore

(* Uniform reporting + exit codes for the typed failures every subcommand
   can hit: frontend errors render as a located file:line:col diagnostic
   (exit 2, never a backtrace), an exhausted profiling budget or a
   failed profiling run as a plain message (exit 2), and a broken IR
   invariant as the verifier report (exit 3). *)
let with_verification f =
  match f () with
  | exception Hypar_ir.Verify.Failed { context; violations } ->
    Printf.eprintf "hypar: IR verification failed after %S:\n%s\n" context
      (Hypar_ir.Verify.report violations);
    3
  | exception (Flow.Unsupported_input _ as e) ->
    Printf.eprintf "hypar: %s\n" (Flow.load_error_message e);
    2
  | exception (Hypar_ir.Frontend.Error _ as e) ->
    Printf.eprintf "%s\n" (Flow.load_error_message e);
    2
  | exception Hypar_profiling.Interp.Fuel_exhausted { steps } ->
    Printf.eprintf "hypar: profiling budget exhausted after %d steps\n" steps;
    2
  | exception Hypar_profiling.Interp.Runtime_error msg ->
    Printf.eprintf "hypar: profiling run failed: %s\n" msg;
    2
  | code -> code

open Cmdliner

(* ---- profiling backend: --interp compiled|tree / HYPAR_INTERP env ---- *)

let interp_arg =
  Arg.(
    value
    & opt (some (enum [ ("compiled", `Compiled); ("tree", `Tree) ])) None
    & info [ "interp" ] ~docv:"BACKEND"
        ~doc:
          "profiling interpreter backend: $(b,compiled) (default; flattens \
           the CDFG once and executes preallocated instruction arrays) or \
           $(b,tree) (the tree-walking oracle). Both produce byte-identical \
           profiles. The $(b,HYPAR_INTERP) environment variable provides \
           the default")

(* ---- observability: --trace FILE / --stats / HYPAR_TRACE env ---- *)

type obs = { trace_file : string option; stats : bool }

let obs_args =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "write a Chrome trace_event JSON of this run to $(docv); open it \
             in chrome://tracing or Perfetto. The $(b,HYPAR_TRACE) \
             environment variable provides a default (empty or $(b,0) \
             disables it)")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"print per-stage span timings and counter totals to stderr")
  in
  Term.(
    const (fun trace_file stats -> { trace_file; stats })
    $ trace_arg $ stats_arg)

(* Wraps a subcommand body: when --trace/--stats (or HYPAR_TRACE) asks for
   observability, enable the sink around the run, emit the trace file and
   stats afterwards — even if the body raises.  Without them this adds
   nothing, keeping output byte-identical to an uninstrumented build. *)
let with_obs ~command (obs : obs) f =
  let trace_file =
    match obs.trace_file with
    | Some _ as t -> t
    | None -> (
      match Sys.getenv_opt "HYPAR_TRACE" with
      | None | Some "" | Some "0" -> None
      | Some file -> Some file)
  in
  if trace_file = None && not obs.stats then f ()
  else begin
    Hypar_obs.Sink.clear ();
    Hypar_obs.Sink.enable ();
    let finish () =
      let events = Hypar_obs.Sink.events () in
      Hypar_obs.Sink.disable ();
      Hypar_obs.Sink.clear ();
      (match trace_file with
      | None -> ()
      | Some file ->
        (* atomic: an interrupt mid-run never leaves a torn trace *)
        Hypar_obs.Export.write_file file (Hypar_obs.Export.chrome events));
      if obs.stats then prerr_string (Hypar_obs.Stats.render events)
    in
    Fun.protect ~finally:finish (fun () ->
        Hypar_obs.Span.with_ ~cat:"cli" ("cli." ^ command) f)
  end

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:
          "input program: Mini-C source ($(b,.mc)), HYPAR bytecode \
           ($(b,.hbc)) or a serialised CDFG ($(b,.ir))")

(* An integer option with a lower bound: a value below it is a usage
   error, not an exception out of the code it feeds.  Platform geometry
   and a domain count are positive; a timing constraint, kernel count,
   warning budget or block id is non-negative. *)
let at_least lo what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= lo -> Ok n
    | Ok _ -> Error (`Msg (Printf.sprintf "expected a %s integer, got %s" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let positive = at_least 1 "positive"
let natural = at_least 0 "non-negative"

let area_arg =
  Arg.(value & opt positive 1500 & info [ "area"; "a" ] ~docv:"UNITS" ~doc:"FPGA area $(docv) (A_FPGA)")

let cgcs_arg =
  Arg.(value & opt positive 2 & info [ "cgcs"; "k" ] ~docv:"N" ~doc:"number of CGC components")

let rows_arg = Arg.(value & opt positive 2 & info [ "rows" ] ~docv:"N" ~doc:"CGC rows")
let cols_arg = Arg.(value & opt positive 2 & info [ "cols" ] ~docv:"N" ~doc:"CGC columns")

let ratio_arg =
  Arg.(value & opt positive 3 & info [ "clock-ratio" ] ~docv:"R" ~doc:"T_FPGA / T_CGC")

(* Every option that takes an integer, in every subcommand. *)
let integer_options =
  [ "--area"; "-a"; "--cgcs"; "-k"; "--rows"; "--cols"; "--clock-ratio";
    "--timing"; "-t"; "--top"; "--max-warnings"; "--max-findings"; "--block";
    "-b"; "--jobs"; "-j"; "--max-points"; "--retries"; "--point-fuel";
    "--max-queue"; "--drain-timeout"; "--deadline"; "--fuel";
    "--retry-after-ms"; "--max-retries"; "--grace"; "--seed"; "--count";
    "--budget-ms"; "--max-stmts"; "--depth" ]

(* cmdliner reads a separate "-5" as an option name, so "-t -5" would
   fail as "unknown option '-5'".  Gluing a negative integer to the
   integer option before it ("--top=-5", "-t-5") lets it reach the
   option's own check, as the glued spellings already do.  After "--"
   nothing is rewritten.  Explore's "-t"/"--timing" is an axis, not an
   integer, and is left alone; explore is the only subcommand that
   starts with "e", so any prefix of its name that cmdliner accepts
   names it. *)
let glue_negative_integers argv =
  let explore =
    Array.length argv > 1 && argv.(1) <> ""
    && String.starts_with ~prefix:argv.(1) "explore"
  in
  let integer name =
    List.mem name integer_options
    && not (explore && (name = "-t" || name = "--timing"))
  in
  let negative v =
    String.length v > 1 && v.[0] = '-' && Option.is_some (int_of_string_opt v)
  in
  let rec go = function
    | "--" :: _ as rest -> rest
    | name :: v :: rest when integer name && negative v ->
      (if String.length name = 2 then name ^ v else name ^ "=" ^ v) :: go rest
    | x :: rest -> x :: go rest
    | [] -> []
  in
  Array.of_list (go (Array.to_list argv))

let constraint_arg =
  Arg.(
    required
    & opt (some natural) None
    & info [ "timing"; "t" ] ~docv:"CYCLES" ~doc:"timing constraint in FPGA cycles")

(* [Some true] when given; [None] defers to Passes.verify_passes
   (HYPAR_VERIFY_IR) *)
let verify_ir_arg =
  Term.(
    const (fun on -> if on then Some true else None)
    $ Arg.(
        value & flag
        & info [ "verify-ir" ]
            ~doc:"check IR structural invariants before and after every pass"))

let faults_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "fault specification file to degrade the platform with (see \
           $(b,hypar faults --help) for the syntax)")

let partition_cmd =
  let run file area cgcs rows cols ratio timing report loops pipelined verify_ir
      faults interp obs =
    with_obs ~command:"partition" obs @@ fun () ->
    with_verification @@ fun () ->
    let prepared = Flow.prepare_file ?backend:interp ?verify_ir file in
    let platform =
      Platform.of_geometry ~area ~cgcs ~rows ~cols ~clock_ratio:ratio
    in
    let granularity = if loops then `Loop else `Block in
    let go platform =
      Engine.run ~granularity ~cgc_pipelining:pipelined ?verify_ir platform
        ~timing_constraint:timing prepared.Flow.cdfg prepared.Flow.profile
    in
    match faults with
    | None ->
      let r = go platform in
      if report then print_string (Hypar_core.Report.markdown r)
      else Format.printf "%a@." Engine.pp r;
      if Engine.met r then 0 else 1
    | Some spec_file -> (
      match
        Result.bind (Hypar_resilience.Spec.load spec_file) (fun spec ->
            Result.map
              (fun degraded ->
                Hypar_resilience.Delta.of_runs ~healthy:(go platform)
                  ~degraded:(go degraded))
              (Hypar_resilience.Degrade.apply spec platform))
      with
      | Error msg ->
        Printf.eprintf "hypar: %s\n" msg;
        2
      | Ok delta ->
        let r = delta.Hypar_resilience.Delta.degraded in
        if report then print_string (Hypar_core.Report.markdown r)
        else Format.printf "%a@." Engine.pp r;
        Format.printf "%a@." Hypar_resilience.Delta.pp delta;
        if Engine.met r then 0 else 1)
  in
  let report_arg =
    Arg.(value & flag & info [ "report" ] ~doc:"emit a Markdown report instead of the trace")
  in
  let loops_arg =
    Arg.(value & flag & info [ "loops" ] ~doc:"move whole innermost loops per step")
  in
  let pipelined_arg =
    Arg.(value & flag & info [ "pipelined" ] ~doc:"modulo-schedule moved kernels on the CGC")
  in
  let term =
    Term.(
      const run $ file_arg $ area_arg $ cgcs_arg $ rows_arg $ cols_arg
      $ ratio_arg $ constraint_arg $ report_arg $ loops_arg $ pipelined_arg
      $ verify_ir_arg $ faults_file_arg $ interp_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Partition a Mini-C program between fine and coarse-grain hardware \
             (optionally on a $(b,--faults)-degraded platform)")
    term

let kernels_cmd =
  let run file top interp obs =
    with_obs ~command:"kernels" obs @@ fun () ->
    with_verification @@ fun () ->
    let prepared = Flow.prepare_file ?backend:interp file in
    let analysis =
      Hypar_analysis.Kernel.analyse prepared.Flow.cdfg prepared.Flow.profile
    in
    print_string
      (Hypar_analysis.Table.render ~top ~title:(Filename.basename file) analysis);
    0
  in
  let top_arg =
    Arg.(value & opt natural 8 & info [ "top" ] ~docv:"N" ~doc:"number of kernels to list")
  in
  let term = Term.(const run $ file_arg $ top_arg $ interp_arg $ obs_args) in
  Cmd.v (Cmd.info "kernels" ~doc:"Kernel analysis (Table-1 style)") term

(* The CI gate lint and analyze share: their --format, --max-<noun>s and
   --deny options, and the gate those feed.  --deny takes ids, mnemonics
   or "all" and is resolved before any work, so a typo fails fast (exit
   2).  [run report] hands each file's findings to [report], which prints
   them, or returns a message for a failure that exits 2.  A denied code
   present, or more findings than --max-<noun>s, exits 1. *)
let gate_term ~tool ~noun ~emitted ~example kind =
  let module D = Hypar_analysis.Diagnostics in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"output format: $(b,text) or $(b,json)")
  in
  let max_arg =
    Arg.(
      value
      & opt (some natural) None
      & info [ "max-" ^ noun ^ "s" ] ~docv:"N"
          ~doc:("fail (exit 1) when more than $(docv) " ^ emitted ^ " are emitted"))
  in
  let deny_arg =
    Arg.(
      value & opt_all string []
      & info [ "deny" ] ~docv:"CODE"
          ~doc:
            (Printf.sprintf
               "fail (exit 1) if this code is present; accepts an id (%s), a \
                mnemonic (%s) or $(b,all); repeatable"
               (D.id kind example) (D.mnemonic kind example)))
  in
  let gate format max deny run =
    let deny_all = List.exists (fun s -> String.lowercase_ascii s = "all") deny in
    match List.find_opt (fun s -> Option.is_none (D.of_string kind s)) deny with
    | Some s when not deny_all ->
      let ids = List.map (D.id kind) (D.all kind) in
      Printf.eprintf "hypar: unknown %s code %S (use %s..%s or a mnemonic)\n"
        tool s (List.hd ids) (List.hd (List.rev ids));
      2
    | _ -> (
      let codes = ref [] in
      let report ~file ds =
        print_string
          ((match format with `Json -> D.render_json | `Text -> D.render)
             kind ~file ds);
        codes := List.rev_append (List.map kind.D.code ds) !codes
      in
      match run report with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        2
      | Ok () ->
        let total = List.length !codes in
        if format = `Text && total > 0 then
          Printf.printf "%d %s%s\n" total noun (if total = 1 then "" else "s");
        let deny_codes = List.filter_map (D.of_string kind) deny in
        let denied =
          List.filter (fun c -> deny_all || List.mem c deny_codes) !codes
          |> List.map (D.id kind)
          |> List.sort_uniq compare
        in
        if denied <> [] then
          Printf.eprintf "hypar: denied %s codes present: %s\n" tool
            (String.concat ", " denied);
        let over_limit =
          match max with
          | Some m when total > m ->
            Printf.eprintf "hypar: %d %ss exceed --max-%ss %d\n" total noun
              noun m;
            true
          | _ -> false
        in
        if denied <> [] || over_limit then 1 else 0)
  in
  Term.(const gate $ format_arg $ max_arg $ deny_arg)

let analyze_cmd =
  let module Analyze = Hypar_analysis.Analyze in
  (* Diagnostics want the program as written: the optimiser deliberately
     removes most of what A002/A004/A007 report, and a broken .ir (the
     A001 case) would not survive verification — so .ir files load
     unverified and Mini-C compiles with the pipeline off unless -O
     explicitly asks for the optimised view. *)
  let load ~optimize file =
    let cdfg = Flow.load ~raw:true ~verify:false file in
    if optimize then Hypar_ir.Passes.optimize ~verify:false cdfg else cdfg
  in
  let run files gate optimize obs =
    with_obs ~command:"analyze" obs @@ fun () ->
    with_verification @@ fun () ->
    gate @@ fun report ->
    Ok
      (List.iter
         (fun file -> report ~file (Analyze.check (load ~optimize file)))
         files)
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Mini-C source or serialised .ir file(s)")
  in
  let optimize_arg =
    Arg.(
      value & flag
      & info [ "O"; "optimized" ]
          ~doc:"analyze the optimised IR (after $(b,Passes.optimize)) instead \
                of the program as written")
  in
  let term =
    Term.(
      const run $ files_arg
      $ gate_term ~tool:"analyze" ~noun:"finding" ~emitted:"findings"
          ~example:Analyze.Use_before_def Analyze.kind
      $ optimize_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"IR diagnostics over the lowered CDFG (dataflow-backed A001-A008: \
             use-before-def, dead stores, unreachable blocks, constant \
             branches, possible out-of-bounds/div-by-zero, unhoisted \
             invariant loads, write-only registers)")
    term

let opt_cmd =
  let run file out verify_ir obs =
    with_obs ~command:"opt" obs @@ fun () ->
    with_verification @@ fun () ->
    let cdfg = Flow.load ~raw:true ?verify:verify_ir file in
    let blocks_before = Hypar_ir.Cdfg.block_count cdfg in
    let instrs_before = Hypar_ir.Cdfg.total_instrs cdfg in
    let optimized = Hypar_ir.Passes.optimize ?verify:verify_ir cdfg in
    let blocks_after = Hypar_ir.Cdfg.block_count optimized in
    let instrs_after = Hypar_ir.Cdfg.total_instrs optimized in
    Printf.printf "%s: %d blocks / %d instrs -> %d blocks / %d instrs (%+d)\n"
      (Filename.basename file) blocks_before instrs_before blocks_after
      instrs_after
      (instrs_after - instrs_before);
    (match out with
    | None -> ()
    | Some path ->
      Hypar_obs.Export.write_file path (Hypar_ir.Serialize.to_string optimized));
    0
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"serialise the optimised CDFG to $(docv) (.ir format)")
  in
  let term =
    Term.(const run $ file_arg $ out_arg $ verify_ir_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:"Run the optimisation pipeline and report the shrink \
             (use $(b,--stats) for per-pass detail)")
    term

let profile_cmd =
  let run file interp obs =
    with_obs ~command:"profile" obs @@ fun () ->
    with_verification @@ fun () ->
    let prepared = Flow.prepare_file ?backend:interp file in
    Format.printf "%a@." Hypar_profiling.Profile.pp prepared.Flow.profile;
    0
  in
  let term = Term.(const run $ file_arg $ interp_arg $ obs_args) in
  Cmd.v (Cmd.info "profile" ~doc:"Dynamic profile of a Mini-C program") term

(* --block ID, of dot and map *)
let block_arg doc =
  Arg.(value & opt (some natural) None & info [ "block"; "b" ] ~docv:"ID" ~doc)

(* Runs [f] unless --block names an id at or beyond the file's block
   count, which exits 2 with that count. *)
let with_block file cdfg block f =
  let n = Hypar_ir.Cdfg.block_count cdfg in
  match block with
  | Some b when b >= n ->
    Printf.eprintf "hypar: no block %d: %s has %d block%s\n" b file n
      (if n = 1 then "" else "s");
    2
  | _ ->
    f ();
    0

let dot_cmd =
  let run file block obs =
    with_obs ~command:"dot" obs @@ fun () ->
    with_verification @@ fun () ->
    let cdfg = (Flow.prepare_file file).Flow.cdfg in
    with_block file cdfg block @@ fun () ->
    match block with
    | None -> print_string (Hypar_ir.Dot.cfg_to_dot cdfg)
    | Some b ->
      print_string
        (Hypar_ir.Dot.dfg_to_dot ~title:(Printf.sprintf "BB%d" b)
           (Hypar_ir.Cdfg.dfg cdfg b))
  in
  let block_arg = block_arg "emit this block's DFG instead of the CFG" in
  let term = Term.(const run $ file_arg $ block_arg $ obs_args) in
  Cmd.v (Cmd.info "dot" ~doc:"Graphviz export of the CFG or one DFG") term

let map_cmd =
  let run file block area cgcs rows cols verify_ir obs =
    with_obs ~command:"map" obs @@ fun () ->
    with_verification @@ fun () ->
    let prepared = Flow.prepare_file ?verify_ir file in
    let cdfg = prepared.Flow.cdfg in
    let fpga = Hypar_finegrain.Fpga.make ~area () in
    let cgc = Hypar_coarsegrain.Cgc.make ~cgcs ~rows ~cols () in
    let show i =
      let info = Hypar_ir.Cdfg.info cdfg i in
      let dfg = Hypar_ir.Cdfg.dfg cdfg i in
      Printf.printf "BB%d (%s): %d ops, %d ASAP levels\n" i
        info.Hypar_ir.Cdfg.block.Hypar_ir.Block.label
        (Hypar_ir.Dfg.node_count dfg)
        (Hypar_ir.Dfg.max_level dfg);
      let fine = Hypar_finegrain.Fine_map.map_block fpga cdfg i in
      Format.printf "  fine-grain:  %a@," Hypar_finegrain.Fine_map.pp_block_mapping fine;
      Format.print_flush ();
      (match Hypar_coarsegrain.Coarse_map.map_block cgc cdfg i with
      | Some m ->
        Format.printf "  coarse-grain: %a@." Hypar_coarsegrain.Coarse_map.pp_block_mapping m;
        print_string
          (Hypar_coarsegrain.Binding.render_gantt cgc dfg
             m.Hypar_coarsegrain.Coarse_map.schedule
             m.Hypar_coarsegrain.Coarse_map.binding)
      | None -> print_endline "  coarse-grain: not CGC-executable (division)");
      print_newline ()
    in
    with_block file cdfg block @@ fun () ->
    match block with
    | Some b -> show b
    | None -> List.iter show (Hypar_ir.Cdfg.block_ids cdfg)
  in
  let block_arg = block_arg "map only this block" in
  let term =
    Term.(
      const run $ file_arg $ block_arg $ area_arg $ cgcs_arg $ rows_arg
      $ cols_arg $ verify_ir_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:"Show both mappings of each block (temporal partitions, CGC Gantt)")
    term

let lint_cmd =
  let module Lint = Hypar_analysis.Lint in
  let run file gate obs =
    with_obs ~command:"lint" obs @@ fun () ->
    gate @@ fun report ->
    let source = In_channel.with_open_bin file In_channel.input_all in
    match Lint.check ~name:(Filename.basename file) source with
    | Error msg -> Error (file ^ ":" ^ msg)
    | Ok diags -> Ok (report ~file diags)
  in
  let term =
    Term.(
      const run $ file_arg
      $ gate_term ~tool:"lint" ~noun:"warning" ~emitted:"diagnostics"
          ~example:Lint.Dead_assignment Lint.kind
      $ obs_args)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Source diagnostics for a Mini-C program (unused/dead/unreachable \
             code, constant conditions, range hazards)")
    term

let baselines_cmd =
  let run file area cgcs rows cols ratio timing interp obs =
    with_obs ~command:"baselines" obs @@ fun () ->
    with_verification @@ fun () ->
    let prepared = Flow.prepare_file ?backend:interp file in
    let platform =
      Platform.of_geometry ~area ~cgcs ~rows ~cols ~clock_ratio:ratio
    in
    Printf.printf "%-28s %7s %16s %6s %8s\n" "strategy" "moves" "final" "met"
      "evals";
    List.iter
      (fun (o : Hypar_core.Baselines.outcome) ->
        Printf.printf "%-28s %7d %16d %6b %8d\n" o.Hypar_core.Baselines.name
          (List.length o.Hypar_core.Baselines.moved)
          o.Hypar_core.Baselines.t_total o.Hypar_core.Baselines.met
          o.Hypar_core.Baselines.evaluations)
      (Hypar_core.Baselines.compare_all platform ~timing_constraint:timing
         prepared.Flow.cdfg prepared.Flow.profile);
    0
  in
  let term =
    Term.(
      const run $ file_arg $ area_arg $ cgcs_arg $ rows_arg $ cols_arg
      $ ratio_arg $ constraint_arg $ interp_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "baselines"
       ~doc:"Compare kernel-selection strategies (greedy / benefit / random / exhaustive)")
    term

let ranges_cmd =
  let run file all obs =
    with_obs ~command:"ranges" obs @@ fun () ->
    with_verification @@ fun () ->
    let cdfg = Flow.load file in
    let reports =
      List.filter
        (fun (r : Hypar_analysis.Range.report) -> all || not r.fits)
        (Hypar_analysis.Analyze.register_ranges cdfg)
    in
    if reports = [] && not all then print_endline "no overflow risks detected";
    List.iter
      (fun r -> Format.printf "%a@." Hypar_analysis.Range.pp_report r)
      reports;
    0
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"list every register, not only overflow risks")
  in
  let term = Term.(const run $ file_arg $ all_arg $ obs_args) in
  Cmd.v
    (Cmd.info "ranges"
       ~doc:"Value-range analysis: flag registers that may overflow their declared width")
    term

(* explore reports failed points as warnings; only an all-failed run
   exits non-zero *)
let exit_of_summary (summary : Explore.Driver.t) =
  let failed = Explore.Driver.failed_count summary in
  if failed > 0 then
    Printf.eprintf "hypar: %d of %d points failed\n" failed
      (Array.length summary.Explore.Driver.results);
  if Explore.Driver.all_failed summary then 1 else 0

let explore_cmd =
  let module Space = Explore.Space in
  let module Driver = Explore.Driver in
  let module Render = Explore.Render in
  let axis_conv =
    let parse s =
      match Space.axis_of_string s with
      | Ok v -> Ok v
      | Error e -> Error (`Msg e)
    in
    let print ppf vs =
      Format.pp_print_string ppf (String.concat "," (List.map string_of_int vs))
    in
    Arg.conv (parse, print)
  in
  let axis_arg ~names ~default ~docv ~doc =
    Arg.(value & opt axis_conv default & info names ~docv ~doc)
  in
  let areas_arg =
    axis_arg ~names:[ "area"; "a" ] ~default:[ 500; 1500; 5000 ] ~docv:"AXIS"
      ~doc:"A_FPGA axis: scalars and ranges, e.g. $(b,500,1500,5000) or \
            $(b,500..5000:500)"
  in
  let cgcs_arg =
    axis_arg ~names:[ "cgcs"; "k" ] ~default:[ 1; 2; 3 ] ~docv:"AXIS"
      ~doc:"CGC-count axis"
  in
  let rows_arg =
    axis_arg ~names:[ "rows" ] ~default:[ 2 ] ~docv:"AXIS" ~doc:"CGC rows axis"
  in
  let cols_arg =
    axis_arg ~names:[ "cols" ] ~default:[ 2 ] ~docv:"AXIS"
      ~doc:"CGC columns axis"
  in
  let ratios_arg =
    axis_arg ~names:[ "clock-ratio" ] ~default:[ 3 ] ~docv:"AXIS"
      ~doc:"T_FPGA / T_CGC axis"
  in
  let timings_arg =
    Arg.(
      required
      & opt (some axis_conv) None
      & info [ "timing"; "t" ] ~docv:"AXIS"
          ~doc:"timing-constraint axis, in FPGA cycles")
  in
  let jobs_arg =
    Arg.(
      value & opt positive 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"evaluate points on $(docv) domains, at most one per core; \
                results are identical for every $(docv)")
  in
  let max_points_arg =
    Arg.(
      value
      & opt int Space.default_max_points
      & info [ "max-points" ] ~docv:"N"
          ~doc:"refuse to expand a space larger than $(docv) points")
  in
  let format_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("text", `Text); ("csv", `Csv); ("json", `Json);
               ("markdown", `Markdown) ])
          `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"output format: $(b,text), $(b,csv), $(b,json) or $(b,markdown)")
  in
  let pareto_only_arg =
    Arg.(
      value & flag
      & info [ "pareto-only" ]
          ~doc:"list only the Pareto frontier (area, t_total, energy)")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "re-attempt a failed point evaluation up to $(docv) times \
             (deterministic backoff)")
  in
  let point_fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "point-fuel" ] ~docv:"N"
          ~doc:
            "per-point budget: bounds the profiling interpreter at \
             preparation and each point's kernel-movement search")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "journal every completed point to the crash-safe $(docv); an \
             interrupted sweep can continue with $(b,--resume)")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "restore points already journalled in $(b,--checkpoint) instead \
             of re-evaluating them; the output is byte-identical to an \
             uninterrupted run")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "write the rendered summary to $(docv) instead of stdout; the \
             file is written atomically (temp file + rename), so an \
             interrupted run never leaves a torn report")
  in
  let run file areas cgcs rows cols ratios timings jobs max_points format
      pareto_only faults retries point_fuel checkpoint resume out interp obs =
    with_obs ~command:"explore" obs @@ fun () ->
    with_verification @@ fun () ->
    if resume && checkpoint = None then begin
      Printf.eprintf "hypar: --resume requires --checkpoint FILE\n";
      2
    end
    else
      match
        match faults with
        | None -> Ok None
        | Some f -> Result.map Option.some (Hypar_resilience.Spec.load f)
      with
      | Error msg ->
        Printf.eprintf "hypar: %s\n" msg;
        2
      | Ok faults -> (
        let prepared =
          Flow.prepare_file ?backend:interp ?max_steps:point_fuel file
        in
        let space =
          Space.make ~areas ~cgcs ~rows ~cols ~clock_ratios:ratios
            ~timings ~max_points ()
        in
        match
          Driver.run ~jobs ~workload:(Filename.basename file) ?faults ~retries
            ?point_fuel ?checkpoint ~resume prepared space
        with
        | Error msg ->
          Printf.eprintf "hypar: %s\n" msg;
          2
        | Ok summary ->
          let render =
            match format with
            | `Text -> Render.text
            | `Csv -> Render.csv
            | `Json -> Render.json
            | `Markdown -> Render.markdown
          in
          let rendered = render ~pareto_only summary in
          (match out with
          | None -> print_string rendered
          | Some file -> Hypar_obs.Export.write_file file rendered);
          exit_of_summary summary)
  in
  let term =
    Term.(
      const run $ file_arg $ areas_arg $ cgcs_arg $ rows_arg $ cols_arg
      $ ratios_arg $ timings_arg $ jobs_arg $ max_points_arg $ format_arg
      $ pareto_only_arg $ faults_file_arg $ retries_arg $ point_fuel_arg
      $ checkpoint_arg $ resume_arg $ out_arg $ interp_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Design-space exploration: axis grids over the platform \
             parameters, parallel cached evaluation, Pareto reporting")
    term

let faults_cmd =
  let module R = Hypar_resilience in
  let run spec_file format area cgcs rows cols ratio obs =
    with_obs ~command:"faults" obs @@ fun () ->
    match R.Spec.load spec_file with
    | Error msg ->
      Printf.eprintf "hypar: %s\n%s\n" msg R.Spec.syntax_help;
      2
    | Ok spec -> (
      (match format with
      | `Text -> print_string (R.Spec.to_text spec)
      | `Json -> print_endline (R.Spec.to_json spec));
      let platform =
      Platform.of_geometry ~area ~cgcs ~rows ~cols ~clock_ratio:ratio
    in
      match R.Degrade.apply spec platform with
      | Error msg ->
        Printf.eprintf "hypar: %s\n" msg;
        2
      | Ok degraded ->
        Format.printf "%a@." Platform.pp degraded;
        (match degraded.Platform.cgc_health with
        | Some h when Platform.degraded degraded ->
          Format.printf "%a@." Hypar_coarsegrain.Cgc.pp_health h
        | Some _ | None -> ());
        0)
  in
  let spec_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SPEC" ~doc:"fault specification file")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"print the parsed spec as $(b,text) or $(b,json)")
  in
  let term =
    Term.(
      const run $ spec_file_arg $ format_arg $ area_arg $ cgcs_arg $ rows_arg
      $ cols_arg $ ratio_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Parse a fault specification, print its canonical form, and show \
          the degraded platform it produces on the given geometry")
    term

let dump_cmd =
  let run file raw obs =
    with_obs ~command:"dump" obs @@ fun () ->
    with_verification @@ fun () ->
    let cdfg = Flow.load ~raw file in
    print_string (Hypar_ir.Serialize.to_string cdfg);
    0
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:"dump the CDFG as lowered, before the optimisation pipeline \
                (what $(b,hypar analyze) inspects)")
  in
  let term = Term.(const run $ file_arg $ raw_arg $ obs_args) in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Serialise the compiled CDFG (reload it by passing the .ir file to any command)")
    term

let compile_bc_cmd =
  let run file out optimized verify_ir obs =
    with_obs ~command:"compile-bc" obs @@ fun () ->
    with_verification @@ fun () ->
    let cdfg = Flow.load ~raw:(not optimized) ?verify:verify_ir file in
    let text = Hypar_bytecode.Emit.to_string cdfg in
    (match out with
    | None -> print_string text
    | Some path -> Hypar_obs.Export.write_file path text);
    0
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"write the bytecode to $(docv) instead of stdout")
  in
  let optimized_arg =
    Arg.(
      value & flag
      & info [ "O"; "optimized" ]
          ~doc:
            "compile the optimised CDFG instead of the raw lowering (the \
             default stays raw so re-ingesting the .hbc exercises the full \
             recovery-plus-optimisation pipeline)")
  in
  let term =
    Term.(const run $ file_arg $ out_arg $ optimized_arg $ verify_ir_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "compile-bc"
       ~doc:
         "Compile a program to HYPAR bytecode (.hbc); feeding the result \
          back to any subcommand exercises the bytecode frontend's CFG \
          recovery and stack-to-register lowering")
    term

let demo_cmd =
  let run obs =
    with_obs ~command:"demo" obs @@ fun () ->
    let apps =
      [
        ( "OFDM transmitter (Table 2)",
          Hypar_apps.Ofdm.prepared (),
          Hypar_apps.Ofdm.timing_constraint );
        ( "JPEG encoder (Table 3)",
          Hypar_apps.Jpeg.prepared (),
          Hypar_apps.Jpeg.timing_constraint );
      ]
    in
    List.iter
      (fun (title, prepared, timing_constraint) ->
        let runs =
          List.map
            (fun pl -> Flow.partition pl ~timing_constraint prepared)
            (Platform.paper_configs ())
        in
        print_string (Hypar_core.Result_table.render ~title runs);
        print_newline ())
      apps;
    0
  in
  let term = Term.(const run $ obs_args) in
  Cmd.v (Cmd.info "demo" ~doc:"Reproduce the paper's Tables 2 and 3") term

let serve_cmd =
  let module Srv = Hypar_server in
  let run jobs max_queue drain_timeout socket faults deadline fuel retry_after
      max_retries grace quarantine chaos interp obs =
    with_obs ~command:"serve" obs @@ fun () ->
    let ( let* ) v f =
      match v with
      | Error msg ->
        Printf.eprintf "hypar: %s\n" msg;
        2
      | Ok x -> f x
    in
    let* faults =
      match faults with
      | None -> Ok None
      | Some f -> Result.map Option.some (Hypar_resilience.Spec.load f)
    in
    let* chaos =
      match chaos with None -> Ok None | Some arg -> Srv.Chaos.of_arg arg
    in
    let* () =
      match quarantine with
      | None -> Ok ()
      | Some path -> Srv.Supervisor.validate_quarantine path
    in
    (* The self-healing pool engages whenever there are worker domains
       to supervise, or when any supervision feature is asked for
       explicitly; plain --jobs 1 keeps the inline path, whose
       responses stay in request order. *)
    let supervisor =
      if jobs > 1 || grace <> None || quarantine <> None || chaos <> None then
        Some
          {
            Srv.Supervisor.max_retries;
            grace_ms = grace;
            chaos;
            quarantine_path = quarantine;
          }
      else None
    in
    let config =
      {
        Srv.Server.jobs;
        max_queue;
        drain_timeout_ms = drain_timeout;
        retry_after_ms = retry_after;
        faults;
        backend = interp;
        default_deadline_ms = deadline;
        default_fuel = fuel;
        supervisor;
      }
    in
    match socket with
    | None -> Srv.Server.run_pipe config
    | Some path -> Srv.Server.run_socket config path
  in
  let jobs_arg =
    Arg.(
      value & opt positive 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "execute requests on $(docv) worker domains; with $(b,1) \
             (default) requests run inline and responses keep request order")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "bound the request queue at $(docv); further requests are \
             refused with a typed $(b,overloaded) envelope (backpressure)")
  in
  let drain_timeout_arg =
    Arg.(
      value & opt int 2000
      & info [ "drain-timeout" ] ~docv:"MS"
          ~doc:
            "on SIGINT/SIGTERM, let in-flight requests finish for up to \
             $(docv) milliseconds before cancelling them cooperatively")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "serve a Unix-domain socket at $(docv) instead of stdin/stdout; \
             the path must not already exist and is removed on exit")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "default per-request wall-clock budget in milliseconds \
             (overridable per request with $(b,deadline_ms)); exceeding it \
             yields a $(b,deadline_exceeded) envelope, not a dead worker")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "default per-request profiling budget in interpreter steps \
             (overridable per request with $(b,fuel)); exhaustion yields a \
             $(b,deadline_exceeded) envelope with the step count")
  in
  let retry_after_arg =
    Arg.(
      value & opt int 100
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:
            "base of the $(b,overloaded) envelope's retry hint; the hint \
             scales with queue depth as $(docv) x ceil(depth / jobs)")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 1
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "times a request whose worker crashed or wedged is re-executed \
             before being quarantined with a $(b,poisoned) envelope \
             (supervised pool only)")
  in
  let grace_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "grace" ] ~docv:"MS"
          ~doc:
            "enable wedge detection: a worker past its request's deadline \
             budget plus $(docv) milliseconds with no poll progress is \
             abandoned and its request retried; must exceed the longest \
             legitimate gap between interpreter polls")
  in
  let quarantine_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"FILE"
          ~doc:
            "journal quarantined request digests to $(docv) (crash-safe, \
             append-only) and reload them on start, so a restarted server \
             stays immune to known-poisonous requests")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "inject seeded faults into the supervised pool: $(b,default), \
             $(b,none), or a chaos spec file (testing only; see \
             $(b,docs/server.md))")
  in
  let term =
    Term.(
      const run $ jobs_arg $ max_queue_arg $ drain_timeout_arg $ socket_arg
      $ faults_file_arg $ deadline_arg $ fuel_arg $ retry_after_arg
      $ max_retries_arg $ grace_arg $ quarantine_arg $ chaos_arg $ interp_arg
      $ obs_args)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running batch-partitioning service: newline-delimited JSON \
          requests on stdin (or $(b,--socket)), one response envelope per \
          line; bounded queue, per-request deadlines, graceful drain, and \
          a supervised self-healing worker pool (see $(b,docs/server.md))")
    term

let fuzz_cmd =
  let module F = Hypar_fuzzgen in
  let run seed count budget_ms jobs fuel unsafe max_stmts depth no_shrink
      fail_on corpus_dir replay format out obs =
    with_obs ~command:"fuzz" obs @@ fun () ->
    match replay with
    | Some dir -> (
      match F.Corpus.load_dir dir with
      | Error msg ->
        Printf.eprintf "hypar: %s\n" msg;
        2
      | Ok entries ->
        let failed = ref 0 in
        List.iter
          (fun (e : F.Corpus.entry) ->
            let verdict = F.Corpus.replay ~fuel e in
            if verdict <> F.Oracle.Pass then incr failed;
            Printf.printf "corpus %s: %s\n" e.F.Corpus.name
              (F.Oracle.verdict_to_string verdict))
          entries;
        Printf.printf "replayed %d entries, %d failing\n" (List.length entries)
          !failed;
        if !failed = 0 then 0 else 1)
    | None ->
      let gen =
        {
          F.Gen.default_config with
          F.Gen.unsafe;
          max_stmts;
          max_depth = depth;
        }
      in
      let config =
        {
          F.Runner.default with
          F.Runner.seed;
          count;
          budget_ms;
          jobs;
          fuel;
          gen;
          shrink = not no_shrink;
          fail_on;
        }
      in
      let report = F.Runner.run config in
      (match corpus_dir with
      | None -> ()
      | Some dir ->
        List.iter
          (fun (f : F.Runner.failure) ->
            let entry =
              {
                F.Corpus.name = Printf.sprintf "auto-%d" f.F.Runner.case_seed;
                seed = Some f.F.Runner.case_seed;
                signature = f.F.Runner.finding.F.Oracle.signature;
                note =
                  Some (Printf.sprintf "found by hypar fuzz --seed %d" seed);
                source = f.F.Runner.reduced;
              }
            in
            Printf.eprintf "hypar: wrote %s\n" (F.Corpus.save ~dir entry))
          report.F.Runner.failures);
      let rendered =
        match format with
        | `Text -> F.Runner.to_text report
        | `Json -> F.Runner.to_json report
      in
      (match out with
      | None -> print_string rendered
      | Some path -> Hypar_obs.Export.write_file path rendered);
      if report.F.Runner.failures = [] then 0 else 1
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "campaign seed; the same seed yields the same programs and the \
             same report bytes, for any $(b,--jobs) value")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"number of programs to generate")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "stop after roughly $(docv) milliseconds instead of a fixed \
             count ($(b,--count) then bounds the maximum); the executed \
             prefix is still deterministic, only its length is not")
  in
  let jobs_arg =
    Arg.(
      value & opt positive 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "judge programs on $(docv) worker domains, at most one per \
             core; the report is byte-identical for every value")
  in
  let fuel_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "baseline interpretation budget per program in steps (variants \
             get four times as much)")
  in
  let unsafe_arg =
    Arg.(
      value & flag
      & info [ "unsafe" ]
          ~doc:
            "also generate unguarded divisions, raw array indices and \
             uninitialised locals; runtime errors then become legitimate \
             and only the backend-equality oracles (which compare error \
             behaviour exactly) apply to failing runs")
  in
  let max_stmts_arg =
    Arg.(
      value & opt int F.Gen.default_config.F.Gen.max_stmts
      & info [ "max-stmts" ] ~docv:"N"
          ~doc:"statement budget for each generated $(b,main)")
  in
  let depth_arg =
    Arg.(
      value & opt int F.Gen.default_config.F.Gen.max_depth
      & info [ "depth" ] ~docv:"N" ~doc:"maximum loop/branch nesting depth")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"report failing programs as generated, without minimisation")
  in
  let fail_on_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fail-on" ] ~docv:"SUBSTRING"
          ~doc:
            "testing hook: flag any compiling program whose source contains \
             $(docv) with a synthetic $(b,injected) divergence, to exercise \
             the shrinking and reporting pipeline deterministically")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "persist every reduced reproducer as a replayable $(b,.mc) \
             entry under $(docv)")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "instead of generating, replay every corpus entry under \
             $(docv) through the full oracle matrix and report per-entry \
             verdicts")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"report format: $(b,text) or $(b,json)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"write the report to $(docv)")
  in
  let term =
    Term.(
      const run $ seed_arg $ count_arg $ budget_arg $ jobs_arg $ fuel_arg
      $ unsafe_arg $ max_stmts_arg $ depth_arg $ no_shrink_arg $ fail_on_arg
      $ corpus_arg $ replay_arg $ format_arg $ out_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded well-formed Mini-C \
          programs, judge each across the frontend/optimisation/backend \
          cross-product, shrink any divergence to a minimal reproducer \
          and optionally persist it to a replayable corpus (see \
          $(b,docs/fuzzing.md))")
    term

let soak_cmd =
  let module Srv = Hypar_server in
  let run seed count budget_ms jobs chaos corpus max_retries grace fuel obs =
    with_obs ~command:"soak" obs @@ fun () ->
    match Srv.Chaos.of_arg chaos with
    | Error msg ->
      Printf.eprintf "hypar: %s\n%s\n" msg Srv.Chaos.syntax_help;
      2
    | Ok chaos -> (
      let config =
        {
          Srv.Soak.seed;
          count;
          budget_ms;
          jobs;
          chaos;
          corpus_dir = corpus;
          max_retries;
          grace_ms = grace;
          fuel;
        }
      in
      match Srv.Soak.run config with
      | Error msg ->
        Printf.eprintf "hypar: %s\n" msg;
        2
      | Ok report ->
        print_string (Srv.Soak.to_text report);
        if Srv.Soak.passed report then 0 else 1)
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "campaign seed; fixes the generated programs, the request mix \
             and every chaos decision")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"number of requests to drive")
  in
  let budget_arg =
    Arg.(
      value & opt int 60_000
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"wall budget for the whole campaign; exceeding it fails")
  in
  let jobs_arg =
    Arg.(
      value & opt positive 4
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "worker domains of the supervised pool; the response digest is \
             identical for every value")
  in
  let chaos_spec_arg =
    Arg.(
      value & opt string "default"
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "fault mix: $(b,default), $(b,none), or a chaos spec file \
             (crash/wedge/delay/drop/truncate/slowloris directives)")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "mix the replayable crash-corpus entries under $(docv) into \
             the request stream alongside generated programs")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 1
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"retries before a worker-killing request is quarantined")
  in
  let grace_arg =
    Arg.(
      value & opt int 2000
      & info [ "grace" ] ~docv:"MS"
          ~doc:
            "wedge-detection grace of the supervised pool; must exceed the \
             longest legitimate gap between interpreter polls")
  in
  let fuel_arg =
    Arg.(
      value & opt int 50_000
      & info [ "fuel" ] ~docv:"N"
          ~doc:"interpreter-step budget per request")
  in
  let term =
    Term.(
      const run $ seed_arg $ count_arg $ budget_arg $ jobs_arg
      $ chaos_spec_arg $ corpus_arg $ max_retries_arg $ grace_arg $ fuel_arg
      $ obs_args)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos soak campaign: drive seeded requests through an in-process \
          supervised server under injected crashes, wedges, delays and I/O \
          interference, asserting exactly one response per request, full \
          pool healing and a $(b,--jobs)-independent response digest (see \
          $(b,docs/server.md))")
    term

let trace_cmd =
  let run file =
    match
      Hypar_obs.Export.parse_chrome
        (In_channel.with_open_bin file In_channel.input_all)
    with
    | Error msg ->
      Printf.eprintf "hypar: %s: %s\n" file msg;
      2
    | Ok events -> (
      match Hypar_obs.Span.validate events with
      | Error msg ->
        Printf.eprintf "hypar: %s: invalid trace: %s\n" file msg;
        1
      | Ok s ->
        Printf.printf "%s: %d events, %d spans, balanced, max depth %d\n" file
          s.Hypar_obs.Span.events s.Hypar_obs.Span.spans
          s.Hypar_obs.Span.max_depth;
        List.iter
          (fun (name, count) -> Printf.printf "  %-32s %d\n" name count)
          (List.sort compare s.Hypar_obs.Span.names);
        0)
  in
  let trace_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace_event JSON file")
  in
  let term = Term.(const run $ trace_file_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Validate and summarise a trace produced with $(b,--trace): checks \
          every span end matches the most recent open begin, then lists \
          per-name span counts")
    term

let () =
  (* SIGINT raises Sys.Break so every Fun.protect cleanup (checkpoint
     journals, trace files) runs before we exit with the conventional
     128+SIGINT code.  serve replaces the handler with its graceful
     drain.  ~catch:false keeps cmdliner from swallowing Break. *)
  Sys.catch_break true;
  let doc = "hybrid fine/coarse-grain reconfigurable partitioning (DATE'04/05 methodology)" in
  let info = Cmd.info "hypar" ~version:"1.0.0" ~doc in
  let group = Cmd.group info [ partition_cmd; kernels_cmd; analyze_cmd; opt_cmd; compile_bc_cmd; profile_cmd; dot_cmd; map_cmd; lint_cmd; baselines_cmd; ranges_cmd; explore_cmd; faults_cmd; dump_cmd; demo_cmd; trace_cmd; serve_cmd; fuzz_cmd; soak_cmd ] in
  match Cmd.eval' ~catch:false ~argv:(glue_negative_integers Sys.argv) group with
  | code -> exit code
  | exception Sys.Break ->
    prerr_endline "hypar: interrupted";
    exit 130
  | exception e ->
    Printf.eprintf "hypar: uncaught exception: %s\n" (Printexc.to_string e);
    exit 125
