(* Robustness fuzzing of the frontend: arbitrary input must produce a
   clean, documented error (or compile), never a crash or an undocumented
   exception.  Random bytes and random well-formed programs both come
   from Hypar_fuzzgen — the byte soup from its deterministic Rng, the
   structured programs from its typed generator — so this suite and
   `hypar fuzz` exercise the same distribution. *)

module Driver = Hypar_minic.Driver
module Lexer = Hypar_minic.Lexer
module Parser = Hypar_minic.Parser
module Rng = Hypar_fuzzgen.Rng
module Gen = Hypar_fuzzgen.Gen
module Pp = Hypar_fuzzgen.Pp

(* random bytes over a Mini-C-flavoured alphabet *)
let random_source seed len =
  let rng = Rng.create seed in
  let alphabet = "abixy0159 +-*/%&|^<>=!~?:;,(){}[]\n\"intvoidforwhilereturn" in
  String.init len (fun _ -> alphabet.[Rng.int rng (String.length alphabet)])

(* Resource exhaustion is a crash, not a documented error: a catch-all
   would swallow Stack_overflow/Out_of_memory and report them as the
   generic "leaked an exception", losing the reproducer.  Fail fast with
   the offending seed instead. *)
let compiles_or_reports ?seed src =
  let where =
    match seed with None -> "" | Some s -> Printf.sprintf " (seed %d)" s
  in
  match Driver.compile ~name:"fuzz" src with
  | Ok _ -> true
  | Error _ -> true
  | exception Lexer.Error _ -> true (* documented *)
  | exception Parser.Error _ -> true (* documented *)
  | exception Stack_overflow ->
    Alcotest.failf "driver crashed: Stack_overflow%s" where
  | exception Out_of_memory ->
    Alcotest.failf "driver crashed: Out_of_memory%s" where
  | exception _ -> false

let test_lexer_total () =
  for seed = 1 to 200 do
    let src = random_source seed (1 + (seed mod 120)) in
    match Lexer.tokenize src with
    | _tokens -> ()
    | exception Lexer.Error _ -> ()
    | exception e ->
      Alcotest.failf "lexer crashed on seed %d: %s" seed (Printexc.to_string e)
  done

let test_parser_total () =
  for seed = 1 to 200 do
    let src = random_source seed (1 + (seed mod 200)) in
    match Parser.parse_program src with
    | _ast -> ()
    | exception Lexer.Error _ -> ()
    | exception Parser.Error _ -> ()
    | exception e ->
      Alcotest.failf "parser crashed on seed %d: %s" seed (Printexc.to_string e)
  done

let test_driver_total () =
  for seed = 201 to 320 do
    let src = random_source seed (1 + (seed mod 160)) in
    if not (compiles_or_reports ~seed src) then
      Alcotest.failf "driver leaked an exception on seed %d" seed
  done

let test_mutated_valid_programs () =
  (* single-character mutations of generator output keep errors clean:
     near-valid input is a different corner of frontend space than byte
     soup, and the generator supplies unlimited distinct near-misses *)
  for it = 1 to 120 do
    let rng = Rng.create (7000 + it) in
    let base = Gen.source (Rng.int rng 1_000_000) in
    let b = Bytes.of_string base in
    let pos = Rng.int rng (Bytes.length b) in
    Bytes.set b pos "+-;)({".[Rng.int rng 6];
    if not (compiles_or_reports ~seed:it (Bytes.to_string b)) then
      Alcotest.failf "mutation %d at %d leaked an exception" it pos
  done

let test_deep_nesting () =
  (* deeply nested expressions and blocks must not blow the stack *)
  let deep_expr = String.make 400 '(' ^ "1" ^ String.make 400 ')' in
  let src = Printf.sprintf "int out[1];\nvoid main() { out[0] = %s; }" deep_expr in
  Alcotest.(check bool) "deep parens" true (compiles_or_reports src);
  let deep_blocks =
    "int out[1];\nvoid main() { " ^ String.concat "" (List.init 200 (fun _ -> "{ "))
    ^ "out[0] = 1; " ^ String.concat "" (List.init 200 (fun _ -> "} ")) ^ "}"
  in
  Alcotest.(check bool) "deep blocks" true (compiles_or_reports deep_blocks)

(* Random fault specifications — including ones naming hardware the
   platform does not have — must degrade the platform and partition
   without ever raising: faults are data, not control flow. *)

let fault_gen =
  QCheck.Gen.(
    oneof
      [
        (fun (c, r, col, u) ->
          Hypar_resilience.Fault.Dead_node
            {
              cgc = c;
              row = r;
              col;
              unit_kind =
                (match u with
                | 0 -> Hypar_resilience.Fault.Mult
                | 1 -> Hypar_resilience.Fault.Alu
                | _ -> Hypar_resilience.Fault.Both);
            })
        <$> quad (int_range 0 3) (int_range 0 3) (int_range 0 3)
              (int_range 0 2);
        (fun c -> Hypar_resilience.Fault.Dead_cgc c) <$> int_range 0 3;
        (fun p -> Hypar_resilience.Fault.Area_loss (`Percent p))
        <$> int_range 0 100;
        (fun u -> Hypar_resilience.Fault.Area_loss (`Units u))
        <$> int_range 0 2000;
        (fun p -> Hypar_resilience.Fault.Comm_slowdown p)
        <$> int_range 100 400;
        (fun (p, m) -> Hypar_resilience.Fault.Transient
                         { permille = p; max_failures = m })
        <$> pair (int_range 0 1000) (int_range 0 3);
      ])

let spec_arb =
  QCheck.make
    ~print:(fun s -> Hypar_resilience.Spec.to_text s)
    QCheck.Gen.(
      (fun (seed, faults) -> { Hypar_resilience.Fault.seed; faults })
      <$> pair (int_range 0 1000) (list_size (int_range 0 6) fault_gen))

let fuzz_prepared =
  lazy
    (Hypar_core.Flow.prepare ~name:"fuzzfault"
       {|
int in[4];
int out[4];
void main() {
  int i;
  for (i = 0; i < 4; i++) { out[i] = in[i] * 5 + i; }
}
|})

let prop_faults_never_raise =
  QCheck.Test.make ~name:"faults: random specs never make Engine.run raise"
    ~count:60 spec_arb (fun spec ->
      let prepared = Lazy.force fuzz_prepared in
      let platform = List.hd (Hypar_core.Platform.paper_configs ()) in
      match Hypar_resilience.Degrade.apply ~strict:false spec platform with
      | Error e -> QCheck.Test.fail_reportf "non-strict apply failed: %s" e
      | Ok degraded ->
        let r =
          Hypar_core.Engine.run degraded ~timing_constraint:4000
            prepared.Hypar_core.Flow.cdfg prepared.Hypar_core.Flow.profile
        in
        (* the run completes and Eq. 2 still holds on the final state *)
        r.Hypar_core.Engine.final.Hypar_core.Engine.t_total
        = r.Hypar_core.Engine.final.Hypar_core.Engine.t_fpga
          + r.Hypar_core.Engine.final.Hypar_core.Engine.t_coarse
          + r.Hypar_core.Engine.final.Hypar_core.Engine.t_comm)

(* ---- the partitioning model over generated programs --------------------

   A design-space sweep characterises each platform once and answers
   every timing constraint with a cut of one shared greedy trajectory.
   Over generated programs and seeded random (possibly degraded)
   platforms, every point of a sweep must equal a standalone Engine.run
   on that point, and the trajectory's cuts must obey the paper's loop:
   a looser constraint moves a prefix of what a tighter one moves, and a
   constraint equal to a step's t_total stops at the first step that
   reaches it.  The suite runs with Engine.check_incremental on, so
   every step is also re-priced from scratch. *)

type model_case = {
  program : int;  (** fuzzgen seed *)
  areas : int list;
  cgcs : int;
  rows : int;
  cols : int;
  ratios : int list;
  fuel : int;  (** the sweep's --point-fuel *)
  spec : Hypar_resilience.Fault.spec;
}

let model_arb =
  QCheck.make
    ~print:(fun c ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf
        "program seed %d, areas %s, %d x %dx%d CGCs, ratios %s, fuel %d, \
         faults:\n%s"
        c.program (ints c.areas) c.cgcs c.rows c.cols (ints c.ratios) c.fuel
        (Hypar_resilience.Spec.to_text c.spec))
    QCheck.Gen.(
      (fun ( (program, a1, a2, cgcs),
             (rows, cols, (r1, r2), fuel),
             (seed, faults) ) ->
        {
          program;
          areas = List.sort_uniq compare [ a1; a2 ];
          cgcs;
          rows;
          cols;
          ratios = List.sort_uniq compare [ r1; r2 ];
          fuel;
          spec = { Hypar_resilience.Fault.seed; faults };
        })
      <$> triple
            (quad (int_range 1 1_000_000) (int_range 20 3000)
               (int_range 20 3000) (int_range 1 3))
            (quad (int_range 1 3) (int_range 1 3)
               (pair (int_range 1 4) (int_range 1 4))
               (int_range 0 4))
            (pair (int_range 0 1000) (list_size (int_range 0 4) fault_gen)))

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let prop_model_cuts =
  QCheck.Test.make
    ~name:"model: sweep points and trajectory cuts equal standalone Engine.run"
    ~count:20 model_arb (fun c ->
      let module Engine = Hypar_core.Engine in
      let module Space = Hypar_explore.Space in
      let module Eval = Hypar_explore.Eval in
      let prepared =
        Hypar_core.Flow.prepare ~name:"model" (Gen.source c.program)
      in
      let cdfg = prepared.Hypar_core.Flow.cdfg
      and profile = prepared.Hypar_core.Flow.profile in
      (* platforms as (area, clock ratio); the CGC is shared *)
      let platform (area, clock_ratio) =
        Eval.platform ~faults:c.spec
          { Space.area; cgcs = c.cgcs; rows = c.rows; cols = c.cols;
            clock_ratio; timing = 0 }
      in
      (* standalone runs, each computed once for both checks below *)
      let runs = Hashtbl.create 64 in
      let run ?max_moves pl timing =
        let key = (pl, timing, max_moves) in
        match Hashtbl.find_opt runs key with
        | Some r -> r
        | None ->
          let r =
            Engine.run ?max_moves (platform pl) ~timing_constraint:timing cdfg
              profile
          in
          Hashtbl.add runs key r;
          r
      in
      let platforms =
        List.concat_map (fun a -> List.map (fun r -> (a, r)) c.ratios) c.areas
      in
      (* the whole greedy loop of each platform: no constraint is met *)
      let full = List.map (fun pl -> (pl, run pl (-1))) platforms in
      let ladder =
        List.concat_map
          (fun (_, (r : Engine.t)) ->
            List.concat_map
              (fun t -> [ t - 1; t ])
              (r.Engine.initial.Engine.t_total
              :: List.map (fun (s : Engine.step) -> s.times.t_total) r.steps))
          full
        |> List.cons (-1)
        |> List.sort_uniq compare
      in
      let space =
        Space.make ~areas:c.areas ~cgcs:[ c.cgcs ] ~rows:[ c.rows ]
          ~cols:[ c.cols ] ~clock_ratios:c.ratios ~timings:ladder ()
      in
      let check_sweep ?point_fuel () =
        match
          Hypar_explore.Driver.run ~jobs:2 ~faults:c.spec ~retries:3
            ?point_fuel prepared space
        with
        | Error e -> QCheck.Test.fail_reportf "sweep refused: %s" e
        | Ok s ->
          let moved_at = Hashtbl.create 16 in
          Array.iter
            (fun (r : Hypar_explore.Driver.point_result) ->
              let p = r.Hypar_explore.Driver.point in
              match r.outcome with
              | Error e -> QCheck.Test.fail_reportf "point failed: %s" e
              | Ok m ->
                let pl = (p.area, p.clock_ratio) in
                let e = run ?max_moves:point_fuel pl p.timing in
                let energy =
                  Hypar_core.Energy.app_energy Hypar_core.Energy.default
                    (platform pl) cdfg
                    ~freq:(Hypar_profiling.Profile.freq profile)
                    ~moved:e.Engine.moved
                in
                if
                  m.Eval.initial <> e.Engine.initial
                  || m.Eval.final <> e.Engine.final
                  || m.Eval.moved <> e.Engine.moved
                  || m.Eval.skipped <> List.length e.Engine.skipped
                  || m.Eval.status <> e.Engine.status
                  || m.Eval.energy <> energy
                then
                  QCheck.Test.fail_reportf
                    "point %s differs from Engine.run (fuel %s)"
                    (Space.point_key p)
                    (Option.fold ~none:"none" ~some:string_of_int point_fuel);
                Hashtbl.add moved_at pl (p.timing, m.Eval.moved))
            s.Hypar_explore.Driver.results;
          (* per platform, constraints ascending: each looser constraint
             moves a prefix of the tighter one's moved set *)
          List.iter
            (fun ((a, r) as pl) ->
              let by_timing =
                List.sort compare (Hashtbl.find_all moved_at pl)
              in
              ignore
                (List.fold_left
                   (fun tighter (t, moved) ->
                     if not (is_prefix moved tighter) then
                       QCheck.Test.fail_reportf
                         "area %d ratio %d: constraint %d moves [%s], not a \
                          prefix of a tighter one's [%s]"
                         a r t
                         (String.concat ";" (List.map string_of_int moved))
                         (String.concat ";" (List.map string_of_int tighter));
                     moved)
                   (match by_timing with [] -> [] | (_, m) :: _ -> m)
                   by_timing))
            platforms
      in
      check_sweep ();
      check_sweep ~point_fuel:c.fuel ();
      let rng = Random.State.make [| c.program |] in
      List.iter
        (fun (((a, r) as pl), (whole : Engine.t)) ->
          (* one trajectory, cut out of order, equals fresh runs *)
          let tr =
            let c = Engine.characterise (platform pl) cdfg profile in
            Engine.trajectory
              (Engine.plan
                 ~analysis:(Hypar_analysis.Kernel.analyse cdfg profile)
                 c.Engine.app c.Engine.coarse)
              c
          in
          let shuffled =
            List.map (fun t -> (Random.State.bits rng, t)) ladder
            |> List.sort compare |> List.map snd
          in
          List.iter
            (fun t ->
              List.iter
                (fun max_moves ->
                  if
                    Engine.cut ?max_moves ~timing_constraint:t tr
                    <> run ?max_moves pl t
                  then
                    QCheck.Test.fail_reportf
                      "area %d ratio %d: cut at %d (max_moves %s) differs from \
                       Engine.run"
                      a r t
                      (Option.fold ~none:"none" ~some:string_of_int max_moves))
                [ None; Some c.fuel ])
            shuffled;
          (* a constraint equal to a step's t_total stops at the first step
             that reaches it — that step, unless an earlier one was lower *)
          List.iter
            (fun (s : Engine.step) ->
              let t = s.times.t_total in
              let expected =
                if whole.Engine.initial.Engine.t_total <= t then
                  Engine.Met_without_partitioning
                else
                  Engine.Met_after
                    (List.find
                       (fun (x : Engine.step) -> x.times.t_total <= t)
                       whole.steps)
                      .step_index
              in
              let got = (Engine.cut ~timing_constraint:t tr).Engine.status in
              if got <> expected then
                QCheck.Test.fail_reportf
                  "area %d ratio %d: constraint %d (step %d's t_total) \
                   stops at %s"
                  a r t s.step_index
                  (Engine.status_key got))
            whole.steps)
        full;
      true)


(* ---- one move plan per coarse layer, against the per-platform oracle ---

   A sweep plans the greedy loop once per coarse layer (CGC geometry x
   health) and prices that plan on every platform assembled from it.
   Over generated programs, healthy and degraded variants of one CGC
   geometry, two FPGA areas and two clock ratios, both granularities,
   both communication pricings and a move budget, a trajectory along the
   shared plan and one along a plan built for the platform alone must cut
   exactly as the old per-platform trajectory (Trajectory_reference) at
   0, at max_int and at each step's t_total and t_total - 1; with the
   sink on, they must emit the same engine.move spans and the same
   engine and fallback counter totals.  A kernel order that names one
   block twice makes a move raise: the exception must stay at its entry
   in both. *)

type plan_case = {
  p_program : int;  (** fuzzgen seed *)
  p_areas : int list;
  p_cgcs : int;
  p_rows : int;
  p_cols : int;
  p_ratios : int list;
  p_granularity : [ `Block | `Loop ];
  p_pricing : [ `Transition | `Per_invocation ];
  p_fuel : int;  (** the move budget, beside none *)
  p_duplicate : int;  (** where the order that names a block twice repeats it *)
  p_spec : Hypar_resilience.Fault.spec;
}

let plan_arb =
  QCheck.make
    ~print:(fun c ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf
        "program seed %d, areas %s, %d x %dx%d CGCs, ratios %s, %s, %s, fuel \
         %d, duplicate at %d, faults:\n%s"
        c.p_program (ints c.p_areas) c.p_cgcs c.p_rows c.p_cols
        (ints c.p_ratios)
        (match c.p_granularity with `Block -> "blocks" | `Loop -> "loops")
        (match c.p_pricing with
        | `Transition -> "transition"
        | `Per_invocation -> "per-invocation")
        c.p_fuel c.p_duplicate
        (Hypar_resilience.Spec.to_text c.p_spec))
    QCheck.Gen.(
      (fun ( (program, a1, a2, (cgcs, rows, cols)),
             ((r1, r2), loops, per_invocation, (fuel, duplicate)),
             (seed, faults) ) ->
        {
          p_program = program;
          p_areas = List.sort_uniq compare [ a1; a2 ];
          p_cgcs = cgcs;
          p_rows = rows;
          p_cols = cols;
          p_ratios = List.sort_uniq compare [ r1; r2 ];
          p_granularity = (if loops then `Loop else `Block);
          p_pricing = (if per_invocation then `Per_invocation else `Transition);
          p_fuel = fuel;
          p_duplicate = duplicate;
          p_spec = { Hypar_resilience.Fault.seed; faults };
        })
      <$> triple
            (quad (int_range 1 1_000_000) (int_range 20 3000)
               (int_range 20 3000)
               (triple (int_range 1 3) (int_range 1 3) (int_range 1 3)))
            (quad
               (pair (int_range 1 4) (int_range 1 4))
               bool bool
               (pair (int_range 0 4) (int_range 0 6)))
            (pair (int_range 0 1000) (list_size (int_range 1 4) fault_gen)))

(* the events the greedy loop emits: its engine.move spans with their
   arguments, in order, and its counter totals *)
let loop_events events =
  let moves =
    List.filter_map
      (fun (e : Hypar_obs.Event.t) ->
        match e.kind with
        | Hypar_obs.Event.Begin { args; _ } when e.name = "engine.move" ->
          Some args
        | _ -> None)
      events
  in
  let total name =
    List.fold_left
      (fun acc (e : Hypar_obs.Event.t) ->
        match e.kind with
        | Hypar_obs.Event.Counter { delta } when e.name = name -> acc + delta
        | _ -> acc)
      0 events
  in
  ( moves,
    List.map
      (fun name -> (name, total name))
      [ "engine.evaluations"; "engine.moves"; "engine.skipped";
        "resilience.fault.fallback" ] )

let recorded f =
  Hypar_obs.Sink.enable ();
  Fun.protect ~finally:Hypar_obs.Sink.disable (fun () -> Hypar_obs.Sink.collect f)

let prop_shared_plan =
  QCheck.Test.make
    ~name:"model: cuts of a plan shared per coarse layer equal the \
           per-platform trajectory"
    ~count:200 plan_arb (fun c ->
      let module Engine = Hypar_core.Engine in
      let module Space = Hypar_explore.Space in
      let module Eval = Hypar_explore.Eval in
      let prepared = Hypar_core.Flow.prepare ~name:"plan" (Gen.source c.p_program) in
      let cdfg = prepared.Hypar_core.Flow.cdfg
      and profile = prepared.Hypar_core.Flow.profile in
      let analysis = Hypar_analysis.Kernel.analyse cdfg profile in
      let granularity = c.p_granularity and comm_pricing = c.p_pricing in
      let app = Engine.app_layer cdfg profile in
      (* every (area, ratio) pair, healthy and degraded: the CGC geometry
         is shared, its health is not *)
      let platforms =
        List.concat_map
          (fun area ->
            List.concat_map
              (fun clock_ratio ->
                let p =
                  { Space.area; cgcs = c.p_cgcs; rows = c.p_rows;
                    cols = c.p_cols; clock_ratio; timing = 0 }
                in
                [ ("healthy", Eval.platform_of p);
                  ("degraded", Eval.platform ~faults:c.p_spec p) ])
              c.p_ratios)
          c.p_areas
      in
      (* one coarse layer and one plan per CGC x health, as a sweep keys them *)
      let plans = Hashtbl.create 4 in
      let shared_plan ~analysis (pl : Hypar_core.Platform.t) =
        let key = (pl.cgc, pl.cgc_health, analysis) in
        match Hashtbl.find_opt plans key with
        | Some cp -> cp
        | None ->
          let coarse = Engine.coarse_layer app pl.cgc pl.cgc_health in
          let cp = (coarse, Engine.plan ~granularity ~analysis app coarse) in
          Hashtbl.add plans key cp;
          cp
      in
      let outcome f =
        match f () with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      let rng = Random.State.make [| c.p_program |] in
      let check what (pl : Hypar_core.Platform.t) ~analysis =
        let coarse, plan = shared_plan ~analysis pl in
        let shared = Engine.assemble app (Engine.fine_layer app pl.fpga) coarse pl in
        let own = Engine.characterise pl cdfg profile in
        let own_plan = Engine.plan ~granularity ~analysis own.app own.coarse in
        let oracle () =
          Trajectory_reference.trajectory ~comm_pricing ~granularity ~analysis
            profile own
        in
        let reference = oracle () in
        let ladder =
          match
            outcome (fun () ->
                Trajectory_reference.cut ~timing_constraint:(-1) reference)
          with
          | Error _ -> [ 0; max_int ]
          | Ok whole ->
            0 :: max_int :: whole.Engine.initial.Engine.t_total
            :: List.concat_map
                 (fun (s : Engine.step) -> [ s.times.t_total; s.times.t_total - 1 ])
                 whole.Engine.steps
        in
        let cuts =
          List.concat_map
            (fun t -> [ (t, None); (t, Some c.p_fuel) ])
            (List.sort_uniq compare ladder)
          |> List.map (fun x -> (Random.State.bits rng, x))
          |> List.sort compare |> List.map snd
        in
        let cut_all cut tr =
          List.map
            (fun (t, max_moves) ->
              outcome (fun () -> cut ?max_moves ~timing_constraint:t tr))
            cuts
        in
        let expected = cut_all Trajectory_reference.cut reference in
        let differences got =
          List.concat
            (List.map2
               (fun (t, m) (e, g) ->
                 if e = g then []
                 else
                   [
                     Printf.sprintf "cut at %d (max_moves %s)%s" t
                       (Option.fold ~none:"none" ~some:string_of_int m)
                       (match (e, g) with
                       | Error e, Error g -> Printf.sprintf ": %s, not %s" g e
                       | Error e, Ok _ -> ": the oracle raised " ^ e
                       | Ok _, Error g -> ": raised " ^ g
                       | Ok _, Ok _ -> "");
                   ])
               cuts (List.combine expected got))
        in
        let check_cuts which got =
          match differences got with
          | [] -> ()
          | diffs ->
            QCheck.Test.fail_reportf
              "%s, %s, %s CGCs, area %d, ratio %d: %s" what which
              (Hypar_coarsegrain.Cgc.describe pl.cgc)
              pl.fpga.Hypar_finegrain.Fpga.area pl.clock_ratio
              (String.concat "; " diffs)
        in
        check_cuts "the shared plan"
          (cut_all Engine.cut (Engine.trajectory ~comm_pricing plan shared));
        check_cuts "the platform's own plan"
          (cut_all Engine.cut (Engine.trajectory ~comm_pricing own_plan own));
        (* the same cuts with the sink on: same results, spans and counters *)
        let got, events =
          recorded (fun () ->
              cut_all Engine.cut (Engine.trajectory ~comm_pricing plan shared))
        in
        let _, oracle_events =
          recorded (fun () -> cut_all Trajectory_reference.cut (oracle ()))
        in
        check_cuts "the traced shared plan" got;
        if loop_events events <> loop_events oracle_events then
          QCheck.Test.fail_reportf
            "%s: engine.move spans or counter totals differ from the oracle's \
             (area %d, ratio %d)"
            what pl.fpga.Hypar_finegrain.Fpga.area pl.clock_ratio
      in
      List.iter (fun (what, pl) -> check what pl ~analysis) platforms;
      (* a sweep over the degraded platforms plans each coarse layer once:
         every point must equal the oracle's cut on its own platform *)
      (let space =
         Space.make ~areas:c.p_areas ~cgcs:[ c.p_cgcs ] ~rows:[ c.p_rows ]
           ~cols:[ c.p_cols ] ~clock_ratios:c.p_ratios ~timings:[ 0; max_int ]
           ()
       in
       match
         (* three retries absorb every injected transient failure *)
         Hypar_explore.Driver.run ~faults:c.p_spec ~retries:3 prepared space
       with
       | Error e -> QCheck.Test.fail_reportf "sweep refused: %s" e
       | Ok s ->
         Array.iter
           (fun (r : Hypar_explore.Driver.point_result) ->
             let p = r.Hypar_explore.Driver.point in
             let expected =
               outcome (fun () ->
                   Trajectory_reference.cut ~timing_constraint:p.timing
                     (Trajectory_reference.trajectory ~analysis profile
                        (Engine.characterise
                           (Eval.platform ~faults:c.p_spec p)
                           cdfg profile)))
             in
             let same =
               match (r.outcome, expected) with
               | Ok m, Ok e ->
                 m.Eval.initial = e.Engine.initial
                 && m.Eval.final = e.Engine.final
                 && m.Eval.moved = e.Engine.moved
                 && m.Eval.skipped = List.length e.Engine.skipped
                 && m.Eval.status = e.Engine.status
               | Error _, Error _ -> true
               | Ok _, Error _ | Error _, Ok _ -> false
             in
             if not same then
               QCheck.Test.fail_reportf "sweep point %s differs from the oracle%s"
                 (Space.point_key p)
                 (match r.outcome with Error e -> ": " ^ e | Ok _ -> ""))
           s.Hypar_explore.Driver.results);
      (* an order that names its first kernel again raises at that move *)
      (match analysis.Hypar_analysis.Kernel.kernels with
      | [] -> ()
      | k :: _ as kernels ->
        let at = min c.p_duplicate (List.length kernels) in
        let order =
          List.filteri (fun i _ -> i < at) kernels
          @ (k :: List.filteri (fun i _ -> i >= at) kernels)
        in
        let analysis = { analysis with Hypar_analysis.Kernel.kernels = order } in
        List.iter
          (fun (what, pl) -> check (what ^ ", a block named twice") pl ~analysis)
          platforms);
      true)

(* ---- greedy is never better than exhaustive search ---------------------

   With at most 10 kernels the CGC can run, [Exhaustive 10] searches every
   subset of them, the paper greedy's moved set included.  So whenever
   the greedy meets the constraint, exhaustive meets it with no more
   moves, and when neither does, exhaustive's t_total is no higher.  The
   gap the greedy leaves when both meet is recorded and printed. *)

type greedy_case = {
  g_program : int;  (** fuzzgen seed *)
  g_point : Hypar_explore.Space.point;  (** [timing] unused *)
  g_percent : int;  (** constraint, as a percentage of the all-FPGA total *)
  g_spec : Hypar_resilience.Fault.spec;
}

let greedy_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "program seed %d, point %s, constraint %d%%, faults:\n%s"
        c.g_program
        (Hypar_explore.Space.point_key c.g_point)
        c.g_percent
        (Hypar_resilience.Spec.to_text c.g_spec))
    QCheck.Gen.(
      (fun ((program, area, cgcs, rows), (cols, clock_ratio, percent),
            (seed, faults)) ->
        {
          g_program = program;
          g_point =
            { Hypar_explore.Space.area; cgcs; rows; cols; clock_ratio;
              timing = 0 };
          g_percent = percent;
          g_spec = { Hypar_resilience.Fault.seed; faults };
        })
      <$> triple
            (quad (int_range 1 1_000_000) (int_range 20 3000) (int_range 1 3)
               (int_range 1 3))
            (triple (int_range 1 3) (int_range 1 4) (int_range 0 110))
            (pair (int_range 0 1000) (list_size (int_range 0 3) fault_gen)))

let greedy_gap = ref 0

let prop_exhaustive_no_worse =
  QCheck.Test.make
    ~name:"model: exhaustive search is never worse than the paper greedy"
    ~count:40 greedy_arb (fun c ->
      let module Engine = Hypar_core.Engine in
      let module Baselines = Hypar_core.Baselines in
      let prepared =
        Hypar_core.Flow.prepare ~name:"greedy" (Gen.source c.g_program)
      in
      let cdfg = prepared.Hypar_core.Flow.cdfg
      and profile = prepared.Hypar_core.Flow.profile in
      let platform = Hypar_explore.Eval.platform ~faults:c.g_spec c.g_point in
      let char = Engine.characterise platform cdfg profile in
      let movable =
        List.filter
          (fun (k : Hypar_analysis.Kernel.entry) ->
            char.Engine.coarse.Engine.latency.(k.block_id) <> None)
          (Hypar_analysis.Kernel.analyse cdfg profile)
            .Hypar_analysis.Kernel.kernels
      in
      QCheck.assume (List.length movable <= 10);
      let initial = (Engine.evaluate platform cdfg profile []).Engine.t_total in
      let timing_constraint = initial * c.g_percent / 100 in
      match
        Baselines.compare_all
          ~strategies:[ Baselines.Paper_greedy; Baselines.Exhaustive 10 ]
          platform ~timing_constraint cdfg profile
      with
      | [ greedy; exhaustive ] ->
        let show (o : Baselines.outcome) =
          Printf.sprintf "%s: met %b, %d moves, t_total %d" o.name o.met
            (List.length o.moved) o.t_total
        in
        let fail why =
          QCheck.Test.fail_reportf "constraint %d: %s (%s; %s)"
            timing_constraint why (show greedy) (show exhaustive)
        in
        if greedy.met then begin
          if not exhaustive.met then fail "greedy met, exhaustive did not";
          if List.length exhaustive.moved > List.length greedy.moved then
            fail "exhaustive needs more moves";
          greedy_gap := max !greedy_gap (greedy.t_total - exhaustive.t_total)
        end
        else if (not exhaustive.met) && exhaustive.t_total > greedy.t_total
        then fail "neither met and exhaustive is slower";
        true
      | _ -> QCheck.Test.fail_report "expected two outcomes")

let test_exhaustive_no_worse () =
  let _, _, run = QCheck_alcotest.to_alcotest prop_exhaustive_no_worse in
  run ();
  Printf.printf
    "largest t_total gap, greedy over exhaustive, when both met: %d cycles\n"
    !greedy_gap

(* Degradation only takes hardware away (dead nodes or CGCs, lost FPGA
   area) or slows the links down, so over generated programs, random
   platforms and fault specs no block may get a cheaper coarse-grain or
   communication price on the degraded platform than on the healthy one:
   its CGC latency is [None] or no lower (never [Some] where the healthy
   one is [None]), and its transfer cycles are no lower.  The fine-grain
   price is left out on purpose: it is not monotone in the FPGA area,
   because the Figure-3 temporal partitioner moves partition boundaries
   across ASAP levels, so a smaller area can cut a block into the same
   number of partitions with fewer cycles per iteration.  The property
   reuses [greedy_arb]; its constraint is unused. *)
let prop_degradation_never_cheaper =
  QCheck.Test.make
    ~name:"model: degradation never lowers a block's CGC or communication price"
    ~count:60 greedy_arb (fun c ->
      let module Engine = Hypar_core.Engine in
      let prepared =
        Hypar_core.Flow.prepare ~name:"degrade" (Gen.source c.g_program)
      in
      let characterise platform =
        Engine.characterise platform prepared.Hypar_core.Flow.cdfg
          prepared.Hypar_core.Flow.profile
      in
      let healthy = characterise (Hypar_explore.Eval.platform c.g_point)
      and degraded =
        characterise (Hypar_explore.Eval.platform ~faults:c.g_spec c.g_point)
      in
      let latency (ch : Engine.characterisation) b =
        ch.Engine.coarse.Engine.latency.(b)
      in
      let show = function Some l -> string_of_int l | None -> "unmappable" in
      Array.iteri
        (fun b comm ->
          (match (latency healthy b, latency degraded b) with
          | _, None -> ()
          | None, Some _ -> QCheck.Test.fail_reportf "block %d became mappable" b
          | Some h, Some d ->
            if d < h then
              QCheck.Test.fail_reportf "block %d: CGC latency %s -> %s" b
                (show (Some h)) (show (Some d)));
          if degraded.Engine.comm.(b) < comm then
            QCheck.Test.fail_reportf "block %d: communication %d -> %d" b comm
              degraded.Engine.comm.(b))
        healthy.Engine.comm;
      true)

(* Eq. 2-4 stated directly, not only through [Inc]: at the all-FPGA
   mapping and after every step, on the healthy platform and on its
   degraded copy, [t_fpga] is the Eq.-4 sum over the blocks left on the
   FPGA, [t_coarse_cgc] the Eq.-3 sum over the moved ones (pipelining
   is off), [t_coarse] its conversion at the platform clock ratio,
   [t_comm] the transition price of every profiled edge that crosses
   the partition, from the map-lattice liveness oracle
   (Liveness_reference), and [t_total] their sum.  The property reuses
   [greedy_arb]; its percentage sets the constraint. *)
let prop_eq2_sums =
  QCheck.Test.make
    ~name:"model: Eq. 2-4 sums hold at the initial mapping and every step"
    ~count:60 greedy_arb (fun c ->
      let module Engine = Hypar_core.Engine in
      let module Platform = Hypar_core.Platform in
      let prepared =
        Hypar_core.Flow.prepare ~name:"eq2" (Gen.source c.g_program)
      in
      let cdfg = prepared.Hypar_core.Flow.cdfg
      and profile = prepared.Hypar_core.Flow.profile in
      let oracle = Liveness_reference.analyse (Hypar_ir.Cdfg.cfg cdfg) in
      let check (r : Engine.t) what on_cgc (t : Engine.times) =
        let moved = Array.make (Array.length r.freq) false in
        List.iter (fun b -> moved.(b) <- true) on_cgc;
        let sum f =
          let acc = ref 0 in
          Array.iteri (fun b freq -> acc := !acc + f b moved.(b) freq) r.freq;
          !acc
        in
        let t_fpga =
          sum (fun b m freq ->
              if m then 0 else r.fine_cycles_per_iter.(b) * freq)
        and t_coarse_cgc =
          sum (fun b m freq ->
              match (m, r.coarse_latency.(b)) with
              | false, _ -> 0
              | true, Some latency -> latency * freq
              | true, None when freq = 0 -> 0
              | true, None ->
                QCheck.Test.fail_reportf "%s: unmappable block %d moved" what b)
        in
        let t_comm =
          List.fold_left
            (fun acc (((src, dst), count) : (int * int) * int) ->
              if moved.(src) = moved.(dst) then acc
              else
                let words =
                  List.length
                    (if moved.(dst) then Liveness_reference.live_in oracle dst
                     else Liveness_reference.defs_live_out oracle src)
                in
                acc
                + count
                  * Hypar_core.Comm.words_cost r.platform.Platform.comm words)
            0 profile.Hypar_profiling.Profile.edges
        in
        let expect name got want =
          if got <> want then
            QCheck.Test.fail_reportf "%s: %s is %d, the sum gives %d" what name
              got want
        in
        expect "t_fpga (Eq. 4)" t.t_fpga t_fpga;
        expect "t_coarse_cgc (Eq. 3)" t.t_coarse_cgc t_coarse_cgc;
        expect "t_coarse" t.t_coarse
          (Platform.cgc_to_fpga_cycles r.platform t_coarse_cgc);
        expect "t_comm" t.t_comm t_comm;
        expect "t_total (Eq. 2)" t.t_total (t_fpga + t.t_coarse + t_comm)
      in
      List.iter
        (fun platform ->
          let initial =
            (Engine.evaluate platform cdfg profile []).Engine.t_total
          in
          let r =
            Engine.run platform
              ~timing_constraint:(initial * c.g_percent / 100)
              cdfg profile
          in
          check r "initial mapping" [] r.initial;
          List.iter
            (fun (s : Engine.step) ->
              check r (Printf.sprintf "step %d" s.step_index) s.on_cgc s.times)
            r.steps;
          check r "final" r.moved r.final)
        [
          Hypar_explore.Eval.platform c.g_point;
          Hypar_explore.Eval.platform ~faults:c.g_spec c.g_point;
        ];
      true)

(* What does hold for the fine-grain model is the temporal partition
   count.  Figure 3 packs a block's nodes next-fit over a fixed ASAP
   level order, which gives the fewest contiguous segments of that order
   for the device's area, and that minimum can only shrink as the area
   grows.  So over generated programs, for every block, the count never
   rises along an ascending area ladder, and an area-loss fault
   ({!Hypar_resilience.Degrade.apply}) never lowers it. *)
type ladder_case = {
  l_program : int;  (** fuzzgen seed *)
  l_areas : int list;  (** strictly ascending A_FPGA values *)
  l_loss : [ `Percent of int | `Units of int ];
}

let ladder_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "program seed %d, areas %s, area loss %s" c.l_program
        (String.concat "," (List.map string_of_int c.l_areas))
        (match c.l_loss with
        | `Percent p -> Printf.sprintf "%d%%" p
        | `Units u -> Printf.sprintf "%d units" u))
    QCheck.Gen.(
      (fun ((program, base), steps, loss) ->
        let _, areas =
          List.fold_left
            (fun (area, acc) step -> (area + step, (area + step) :: acc))
            (base, [ base ]) steps
        in
        { l_program = program; l_areas = List.rev areas; l_loss = loss })
      <$> triple
            (pair (int_range 1 1_000_000) (int_range 1 400))
            (list_size (int_range 2 10) (int_range 1 600))
            (oneof
               [
                 (fun p -> `Percent p) <$> int_range 1 100;
                 (fun u -> `Units u) <$> int_range 1 2000;
               ]))

let prop_partition_count_monotone =
  QCheck.Test.make
    ~name:"model: the temporal partition count never rises with FPGA area"
    ~count:60 ladder_arb (fun c ->
      let module Engine = Hypar_core.Engine in
      let module Platform = Hypar_core.Platform in
      let prepared =
        Hypar_core.Flow.prepare ~name:"ladder" (Gen.source c.l_program)
      in
      let app =
        Engine.app_layer prepared.Hypar_core.Flow.cdfg
          prepared.Hypar_core.Flow.profile
      in
      let counts (platform : Platform.t) =
        (Engine.fine_layer app platform.Platform.fpga).Engine.partition_count
      in
      let spec =
        { Hypar_resilience.Fault.seed = 0; faults = [ Area_loss c.l_loss ] }
      in
      ignore
        (List.fold_left
           (fun previous area ->
             let platform =
               Platform.of_geometry ~area ~cgcs:1 ~rows:2 ~cols:2 ~clock_ratio:2
             in
             let healthy = counts platform in
             let degraded =
               match Hypar_resilience.Degrade.apply spec platform with
               | Ok p -> counts p
               | Error e -> QCheck.Test.fail_reportf "area loss refused: %s" e
             in
             Array.iteri
               (fun b n ->
                 (match previous with
                 | Some (a, before) when n > before.(b) ->
                   QCheck.Test.fail_reportf
                     "block %d: %d partitions at A_FPGA %d, %d at %d" b
                     before.(b) a n area
                 | _ -> ());
                 if degraded.(b) < n then
                   QCheck.Test.fail_reportf
                     "block %d at A_FPGA %d: %d partitions healthy, %d degraded"
                     b area n degraded.(b))
               healthy;
             Some (area, healthy))
           None c.l_areas);
      true)

(* The differential properties below draw from the typed fuzzgen
   generator, as (seed, ast) pairs so QCheck shrinking can descend
   through Hypar_fuzzgen.Shrink.candidates — a failing random program is
   reported as a minimal reproducer, not a page of noise.  Shrink
   candidates that no longer compile are treated as passing (the
   interesting failure preserves compilability). *)

let fuzzgen_arb =
  QCheck.make
    ~print:(fun (seed, ast) ->
      Printf.sprintf "seed %d:\n%s" seed (Pp.program ast))
    ~shrink:(fun (seed, ast) yield ->
      List.iter (fun ast' -> yield (seed, ast')) (Hypar_fuzzgen.Shrink.candidates ast))
    QCheck.Gen.(
      map (fun seed -> (seed, Gen.program seed)) (int_range 1 1_000_000))

let with_compiled src f =
  match Driver.compile ~name:"diff" ~simplify:false src with
  | Ok raw -> f raw
  | Error _ -> true (* shrink artefact: not the failure we are tracking *)

let prop_optimize_differential =
  QCheck.Test.make
    ~name:"passes: optimize preserves interpreter semantics"
    ~count:40 fuzzgen_arb (fun (_seed, ast) ->
      let src = Pp.program ast in
      with_compiled src @@ fun raw ->
      let opt = Hypar_ir.Passes.optimize ~verify:true raw in
      let r_raw = Hypar_profiling.Interp.run raw in
      let r_opt = Hypar_profiling.Interp.run opt in
      if
        r_raw.Hypar_profiling.Interp.return_value
        <> r_opt.Hypar_profiling.Interp.return_value
      then
        QCheck.Test.fail_reportf "return value diverged: %s vs %s"
          (match r_raw.Hypar_profiling.Interp.return_value with
          | Some v -> string_of_int v
          | None -> "none")
          (match r_opt.Hypar_profiling.Interp.return_value with
          | Some v -> string_of_int v
          | None -> "none");
      List.for_all
        (fun (name, contents) ->
          contents = Hypar_profiling.Interp.array_exn r_opt name)
        r_raw.Hypar_profiling.Interp.arrays
      || QCheck.Test.fail_reportf "array contents diverged")

(* Differential testing of the two frontends: a random structured
   program compiled directly, versus compiled to bytecode (compile-bc's
   Emit on the raw lowering) and re-ingested through the bytecode
   frontend's CFG recovery + stack-to-register lowering + optimiser.
   Both CDFGs must pass Verify and produce identical interpreter
   results — the decompilation pipeline loses nothing observable. *)

let prop_bytecode_differential =
  QCheck.Test.make
    ~name:"bytecode: decompiled frontend matches Mini-C frontend"
    ~count:40 fuzzgen_arb (fun (_seed, ast) ->
      let src = Pp.program ast in
      with_compiled src @@ fun direct ->
      let hbc = Hypar_bytecode.Emit.to_string direct in
      let recovered =
        match Hypar_bytecode.Driver.compile ~name:"diff" ~verify_ir:true hbc with
        | Ok cdfg -> cdfg
        | Error e ->
          QCheck.Test.fail_reportf "bytecode frontend rejected emitted code: %s\n%s"
            (Hypar_ir.Frontend.string_of_error e)
            hbc
      in
      Hypar_ir.Verify.check_exn ~context:"bytecode-differential" recovered;
      let r_direct = Hypar_profiling.Interp.run direct in
      let r_bc = Hypar_profiling.Interp.run recovered in
      if
        r_direct.Hypar_profiling.Interp.return_value
        <> r_bc.Hypar_profiling.Interp.return_value
      then
        QCheck.Test.fail_reportf "return value diverged: %s vs %s\n%s"
          (match r_direct.Hypar_profiling.Interp.return_value with
          | Some v -> string_of_int v
          | None -> "none")
          (match r_bc.Hypar_profiling.Interp.return_value with
          | Some v -> string_of_int v
          | None -> "none")
          hbc;
      List.for_all
        (fun (name, contents) ->
          contents = Hypar_profiling.Interp.array_exn r_bc name)
        r_direct.Hypar_profiling.Interp.arrays
      || QCheck.Test.fail_reportf "array contents diverged via bytecode")

(* Differential testing of the two interpreter backends: on every random
   structured program — compiled raw (-O0), through the full optimiser
   (-O), and round-tripped through the bytecode frontend — the compiled
   executor must produce an Interp.result structurally identical to the
   tree-walking oracle in every field (frequencies, counters, edge
   profile, arrays, return value).  Each variant also runs with a
   counting [poll] and with [max_steps] at the program's exact unit cost
   and one below it, where the outcome (result or exception) and the
   number of poll calls must agree too.  170 seeds x 3 variants = 510
   random programs per run. *)

let backend_outcome ?max_steps ~with_poll run cdfg =
  let polls = ref 0 in
  let poll = if with_poll then Some (fun () -> incr polls) else None in
  let outcome =
    match run ?max_steps ?poll cdfg with
    | r -> Ok r
    | exception Hypar_profiling.Interp.Fuel_exhausted { steps } ->
      Error (Printf.sprintf "Fuel_exhausted after %d steps" steps)
    | exception Hypar_profiling.Interp.Runtime_error m -> Error m
  in
  (outcome, !polls)

let prop_backend_differential =
  QCheck.Test.make
    ~name:"interp: compiled backend matches tree oracle (-O0, -O, bytecode)"
    ~count:170 fuzzgen_arb (fun (seed, ast) ->
      let src = Pp.program ast in
      with_compiled src @@ fun raw ->
      let opt = Hypar_ir.Passes.optimize raw in
      let bc =
        Hypar_bytecode.Driver.compile_exn ~name:"diff"
          (Hypar_bytecode.Emit.to_string raw)
      in
      let tree ?max_steps ?poll cdfg =
        Hypar_profiling.Interp.run ?max_steps ?poll cdfg
      and comp ?max_steps ?poll cdfg =
        Hypar_profiling.Exec.run ?max_steps ?poll cdfg
      in
      List.for_all
        (fun (variant, cdfg) ->
          (* a shrunk program may fail at run time; its outcomes are
             still compared, with the budgets at 0 and -1 *)
          let cost =
            match Hypar_profiling.Interp.run cdfg with
            | r -> r.instrs_executed + r.blocks_executed
            | exception Hypar_profiling.Interp.Runtime_error _ -> 0
          in
          List.for_all
            (fun (config, max_steps, with_poll) ->
              backend_outcome ?max_steps ~with_poll tree cdfg
              = backend_outcome ?max_steps ~with_poll comp cdfg
              || QCheck.Test.fail_reportf
                   "backends diverged on the %s variant of seed %d (%s):\n%s"
                   variant seed config src)
            [
              ("plain", None, false);
              ("counting poll", None, true);
              ("max_steps = cost", Some cost, false);
              ("max_steps = cost - 1", Some (cost - 1), false);
            ])
        [ ("-O0", raw); ("-O", opt); ("bytecode", bc) ])

(* The whole oracle matrix as one property: what `hypar fuzz` judges per
   program, wrapped for QCheck so failures shrink. *)

let prop_oracle_matrix =
  QCheck.Test.make ~name:"fuzzgen: oracle matrix passes on generated programs"
    ~count:60 fuzzgen_arb (fun (_seed, ast) ->
      match Hypar_fuzzgen.Oracle.run (Pp.program ast) with
      | Hypar_fuzzgen.Oracle.Pass -> true
      | verdict ->
        QCheck.Test.fail_reportf "%s"
          (Hypar_fuzzgen.Oracle.verdict_to_string verdict))

(* The serve protocol is the same contract one layer up: any byte soup
   on the wire must come back as a typed envelope, never an escaping
   exception and never a dead worker. *)

let serve_config () =
  {
    Hypar_server.Worker.faults = None;
    backend = None;
    default_deadline_ms = None;
    default_fuel = Some 10_000;
    drain = Hypar_server.Drain.create ~drain_timeout_ms:1000;
    queue_depth = (fun () -> 0);
    on_poll = None;
  }

let envelope_of config line =
  match Hypar_server.Protocol.parse_request line with
  | Error _ -> None
  | Ok req -> (
    match Hypar_server.Worker.execute config req with
    | resp -> Some resp
    | exception e ->
      Alcotest.failf "worker leaked %s on %S" (Printexc.to_string e) line)

let test_protocol_byte_soup () =
  let config = serve_config () in
  let alphabet = {|{}[]":,0123456789.truefalsenull-+eE \verbpartitionfile|} in
  for seed = 1 to 300 do
    let rng = Rng.create seed in
    let line =
      String.init (1 + (seed mod 80)) (fun _ ->
          alphabet.[Rng.int rng (String.length alphabet)])
    in
    match envelope_of config line with
    | None -> ()
    | Some resp ->
      let rendered = Hypar_server.Protocol.render resp in
      (match Hypar_obs.Jsonv.parse rendered with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "seed %d: envelope not JSON (%s): %s" seed e rendered)
  done

let test_protocol_truncations () =
  (* every prefix of a valid request parses to a typed error or a typed
     envelope — truncated writes cannot wedge or kill the server *)
  let config = serve_config () in
  let full = {|{"id":12,"verb":"partition","file":"/nonexistent.mc","timing":800}|} in
  for len = 0 to String.length full do
    let line = String.sub full 0 len in
    match envelope_of config line with
    | None -> ()
    | Some (Hypar_server.Protocol.Failed _) -> ()
    | Some resp ->
      Alcotest.failf "prefix %d: unexpected %s" len
        (Hypar_server.Protocol.render resp)
  done;
  (* the worker is still alive and answering after all of the above *)
  match envelope_of config {|{"verb":"health"}|} with
  | Some (Hypar_server.Protocol.Done _) -> ()
  | _ -> Alcotest.fail "worker dead after truncation storm"

let test_worker_crash_rank () =
  (* resource exhaustion must surface as a crash:* failure naming the
     request, not as the generic error envelope; tested through the
     extracted envelope function so no stack actually overflows here *)
  let check exn expected =
    match Hypar_server.Worker.envelope_of_exn (Some 41) exn with
    | Hypar_server.Protocol.Failed { id = Some 41; kind; message } ->
      Alcotest.(check string) "kind" expected kind;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names the request" true
        (contains message "request 41")
    | resp ->
      Alcotest.failf "unexpected envelope %s"
        (Hypar_server.Protocol.render resp)
  in
  check Stack_overflow "crash:Stack_overflow";
  check Out_of_memory "crash:Out_of_memory";
  (* environmental I/O failures rank as io:*, also naming the request *)
  check (Sys_error "input.mc: No such file or directory") "io:Sys_error";
  check (Unix.Unix_error (Unix.EACCES, "open", "input.mc")) "io:Unix_error";
  (* ordinary exceptions keep the historical generic shape *)
  match Hypar_server.Worker.envelope_of_exn (Some 7) (Failure "boom") with
  | Hypar_server.Protocol.Failed { id = Some 7; kind = "Failure"; _ } -> ()
  | resp ->
    Alcotest.failf "unexpected envelope %s" (Hypar_server.Protocol.render resp)

let test_worker_io_rank_messages () =
  (* the io:* message carries the underlying detail verbatim plus the
     offending request, so operators can tell a missing input from a
     permissions problem straight from the envelope *)
  (match
     Hypar_server.Worker.envelope_of_exn (Some 3)
       (Sys_error "gone.mc: No such file or directory")
   with
  | Hypar_server.Protocol.Failed { kind = "io:Sys_error"; message; _ } ->
    Alcotest.(check string) "sys message"
      "gone.mc: No such file or directory (request 3)" message
  | resp ->
    Alcotest.failf "unexpected envelope %s" (Hypar_server.Protocol.render resp));
  (match
     Hypar_server.Worker.envelope_of_exn None
       (Unix.Unix_error (Unix.ENOENT, "open", "gone.mc"))
   with
  | Hypar_server.Protocol.Failed { kind = "io:Unix_error"; message; _ } ->
    Alcotest.(check string) "unix message"
      "open gone.mc: No such file or directory (request without id)" message
  | resp ->
    Alcotest.failf "unexpected envelope %s" (Hypar_server.Protocol.render resp));
  match
    Hypar_server.Worker.envelope_of_exn None
      (Unix.Unix_error (Unix.EPIPE, "write", ""))
  with
  | Hypar_server.Protocol.Failed { kind = "io:Unix_error"; message; _ } ->
    Alcotest.(check string) "no-arg unix message"
      "write: Broken pipe (request without id)" message
  | resp ->
    Alcotest.failf "unexpected envelope %s" (Hypar_server.Protocol.render resp)

let suite =
  [
    Alcotest.test_case "lexer total" `Quick test_lexer_total;
    Alcotest.test_case "parser total" `Quick test_parser_total;
    Alcotest.test_case "driver total" `Quick test_driver_total;
    Alcotest.test_case "mutated programs" `Quick test_mutated_valid_programs;
    Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
    QCheck_alcotest.to_alcotest prop_faults_never_raise;
    QCheck_alcotest.to_alcotest prop_model_cuts;
    Alcotest.test_case "model: exhaustive never worse than greedy" `Quick
      test_exhaustive_no_worse;
    QCheck_alcotest.to_alcotest prop_degradation_never_cheaper;
    QCheck_alcotest.to_alcotest prop_eq2_sums;
    QCheck_alcotest.to_alcotest prop_partition_count_monotone;
    QCheck_alcotest.to_alcotest prop_optimize_differential;
    QCheck_alcotest.to_alcotest prop_bytecode_differential;
    QCheck_alcotest.to_alcotest prop_backend_differential;
    QCheck_alcotest.to_alcotest prop_oracle_matrix;
    Alcotest.test_case "serve protocol: byte soup" `Quick
      test_protocol_byte_soup;
    Alcotest.test_case "serve protocol: truncations" `Quick
      test_protocol_truncations;
    Alcotest.test_case "worker: crash ranking" `Quick test_worker_crash_rank;
    Alcotest.test_case "worker: io ranking" `Quick test_worker_io_rank_messages;
    QCheck_alcotest.to_alcotest prop_shared_plan;
  ]
