(* serve_mix: a supervised in-process serve session ([jobs = 1]) with one
   client keeping one request in flight.  One op is one request.  The
   requests come from a fixed deck — partition at four constraint
   levels, analyze, a small explore and health, over the Mini-C
   examples, the bytecode examples and OFDM/Sobel/ADPCM sources written
   in set-up — that the seed shuffles and whose constraints it perturbs
   by up to 10%.  Every request recompiles a small program, so the
   frontends, the hand-off to the worker and the supervisor dominate. *)

module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform
module Jsonv = Hypar_obs.Jsonv

type kind = Partition of int | Analyze | Explore | Health

type entry = { file : string; kind : kind; body : string }

(* file (relative to the checkout root) -> initial Eq.-2 cycles on the
   default serve platform (A_FPGA 1500, two 2x2 CGCs), the scale the
   partition constraints are set against *)
let examples =
  [ ("examples/minic/fir.mc", 15985); ("examples/minic/dotprod.mc", 3635);
    ("examples/minic/histogram.mc", 14873); ("examples/minic/iir.mc", 9241);
    ("examples/bytecode/dotprod.hbc", 499); ("examples/bytecode/gcd.hbc", 127);
    ("examples/bytecode/fib.hbc", 349) ]

let written =
  [ ("ofdm.mc", Hypar_apps.Ofdm.source, 163825);
    ("sobel.mc", Hypar_apps.Sobel.source, 959011);
    ("adpcm.mc", Hypar_apps.Adpcm.source, 864307) ]

let levels = [ 0.1; 0.4; 0.8; 1.1 ]
let decks = 4
let explore_areas = [ 500; 1500 ] and explore_cgcs = [ 1; 2 ]
let explore_timings = [ 2000; 8000 ]
let axis l = String.concat "," (List.map string_of_int l)

let deck st programs =
  let partition (file, initial) level =
    let timing =
      max 1 (int_of_float (float_of_int initial *. level *. (0.9 +. Random.State.float st 0.2)))
    in
    { file; kind = Partition timing;
      body = Printf.sprintf {|"verb":"partition","file":"%s","timing":%d|} file timing }
  in
  List.concat_map (fun p -> List.map (partition p) levels) programs
  @ List.map
      (fun (file, _) ->
        { file; kind = Analyze; body = Printf.sprintf {|"verb":"analyze","file":"%s","top":4|} file })
      programs
  @ List.map
      (fun file ->
        { file; kind = Explore;
          body =
            Printf.sprintf {|"verb":"explore","file":"%s","areas":"%s","cgcs":"%s","timings":"%s"|}
              file (axis explore_areas) (axis explore_cgcs) (axis explore_timings) })
      [ "examples/minic/fir.mc"; "examples/minic/iir.mc" ]
  @ List.init 8 (fun _ -> { file = ""; kind = Health; body = {|"verb":"health"|} })

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type env = {
  script : entry array;
  session : Serve_client.t;
  first : string option array;  (* first payload seen per script entry *)
}

let programs () =
  examples @ List.map (fun (name, source, initial) -> (Work.write name source, initial)) written

let setup ~seed =
  let st = Random.State.make [| seed |] in
  let programs = programs () in
  let script =
    Array.of_list (List.concat (List.init decks (fun _ -> shuffle st (deck st programs))))
  in
  {
    script;
    session = Serve_client.start ();
    first = Array.make (Array.length script) None;
  }

let teardown env = ignore (Serve_client.stop env.session)

(* A reply is right when it is [ok] and, health aside, its payload
   equals the first payload seen for the same script entry: every repeat
   of a request must compute exactly the same result. *)
let check env i (r : Serve_client.reply) =
  let e = env.script.(i) in
  if r.status <> "ok" then Some (Printf.sprintf "request %d (%s) answered %s" r.id e.body r.status)
  else if e.kind = Health then None
  else
    match env.first.(i) with
    | None ->
      env.first.(i) <- Some r.payload;
      None
    | Some p when p = r.payload -> None
    | Some _ -> Some (Printf.sprintf "request %d (%s): result differs from its first answer" r.id e.body)

(* Serves script entries cyclically on [session] until [stop n] holds,
   [n] being the number sent so far; every reply is checked, then
   handed to [seen]. *)
let drive env tally session ~stop ~seen =
  let n = ref 0 and index = Hashtbl.create 64 in
  let next () =
    if stop !n then None
    else begin
      let i = !n mod Array.length env.script in
      Hashtbl.replace index session.Serve_client.next_id i;
      incr n;
      Some env.script.(i).body
    end
  in
  Serve_client.closed_loop session ~concurrency:1 ~next ~on_reply:(function
    | Error e -> Tally.record tally (Some e)
    | Ok r ->
      let i = Hashtbl.find index r.id in
      Hashtbl.remove index r.id;
      Tally.record tally ~latency_ms:r.latency_ms (check env i r);
      seen r)

(* Whole script cycles, each a stretch of its own (about a second), so
   the host is measured between cycles, with no request in flight. *)
let timed env tally ~until ~min_ops ~hard_stop =
  let t0 = Unix.gettimeofday () in
  let cycle = Array.length env.script in
  while
    (tally.Tally.attempted < min_ops || Unix.gettimeofday () < until)
    && Unix.gettimeofday () < hard_stop
  do
    Tally.calibrate tally;
    drive env tally env.session ~seen:ignore ~stop:(fun n ->
        n >= cycle || Unix.gettimeofday () >= hard_stop)
  done;
  Tally.finish tally;
  Unix.gettimeofday () -. t0

let payload_json env i = Option.bind env.first.(i) (fun p -> Result.to_option (Jsonv.parse p))

let final_cycles env =
  List.filter_map
    (fun i ->
      match env.script.(i).kind with
      | Partition _ ->
        Option.bind (payload_json env i) (fun v ->
            Option.bind (Jsonv.member "final" v) (fun f -> Option.bind (Jsonv.member "t_total" f) Jsonv.to_int))
      | _ -> None)
    (List.init (Array.length env.script) Fun.id)

(* --- reference: each distinct request recomputed without the server -- *)

let serve_platform ?(area = 1500) ?(cgcs = 2) () =
  Platform.make ~fpga:(Hypar_finegrain.Fpga.make ~area ())
    ~cgc:(Hypar_coarsegrain.Cgc.make ~cgcs ~rows:2 ~cols:2 ()) ()

let prepare file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let name = Filename.basename file in
  let cdfg =
    if Filename.check_suffix file ".hbc" then Hypar_bytecode.Driver.compile_exn ~name text
    else Hypar_minic.Driver.compile_exn ~name text
  in
  let interp = Hypar_profiling.Profile.run cdfg in
  { Flow.cdfg; profile = Hypar_profiling.Profile.of_result cdfg interp; interp }

let ints v name =
  Option.value ~default:[]
    (Option.map (List.filter_map Jsonv.to_int) (Option.bind (Jsonv.member name v) Jsonv.to_list))

let field_int v path =
  List.fold_left (fun acc k -> Option.bind acc (Jsonv.member k)) (Some v) path
  |> Fun.flip Option.bind Jsonv.to_int

let reference_problem (p : Flow.prepared) e payload =
  match e.kind with
  | Health -> None
  | Partition timing_constraint ->
    let pl = serve_platform () in
    let r = Engine.run pl ~timing_constraint p.cdfg p.profile in
    let moved = ints payload "moved" in
    let recomputed = (Engine.evaluate pl p.cdfg p.profile moved).t_total in
    if moved <> r.moved || field_int payload [ "final"; "t_total" ] <> Some r.final.t_total
       || recomputed <> r.final.t_total
    then Some (e.body ^ ": served partition differs from the in-process reference")
    else None
  | Analyze ->
    let a = Hypar_analysis.Kernel.analyse p.cdfg p.profile in
    let want = List.map (fun (k : Hypar_analysis.Kernel.entry) -> k.block_id) (Hypar_analysis.Kernel.top a 4) in
    let got =
      List.filter_map (fun k -> field_int k [ "block_id" ])
        (Option.value ~default:[] (Option.bind (Jsonv.member "kernels" payload) Jsonv.to_list))
    in
    if got <> want then Some (e.body ^ ": served kernels differ from Kernel.analyse") else None
  | Explore -> (
    let space =
      Hypar_explore.Space.make ~areas:explore_areas ~cgcs:explore_cgcs ~timings:explore_timings ()
    in
    match Hypar_explore.Driver.run p space with
    | Error err -> Some (e.body ^ ": " ^ err)
    | Ok s ->
      let want = List.filter_map Result.to_option (Calls.sweep_finals s) in
      let got =
        List.filter_map (fun r -> field_int r [ "final" ])
          (Option.value ~default:[] (Option.bind (Jsonv.member "results" payload) Jsonv.to_list))
      in
      if got <> want then Some (e.body ^ ": served sweep differs from Driver.run") else None)

let verify env =
  let prepared = Hashtbl.create 16 in
  let prepared_of file =
    match Hashtbl.find_opt prepared file with
    | Some p -> p
    | None ->
      let p = prepare file in
      Hashtbl.replace prepared file p;
      p
  in
  let seen = Hashtbl.create 64 and unanswered = ref 0 in
  let problems =
    List.filter_map
      (fun i ->
        let e = env.script.(i) in
        match (e.kind, payload_json env i) with
        | Health, _ -> None
        | _, None -> incr unanswered; None
        | _, Some payload when not (Hashtbl.mem seen e.body) ->
          Hashtbl.replace seen e.body ();
          reference_problem (prepared_of e.file) e payload
        | _ -> None)
      (List.init (Array.length env.script) Fun.id)
  in
  ( problems,
    [ Printf.sprintf "%d distinct requests checked against in-process references; %d script entries never served"
        (Hashtbl.length seen) !unanswered ] )

(* --- traced run -------------------------------------------------------- *)

(* One script cycle on a fresh session.  With the sink off, the
   session's server-side split goes to the per-layer samples; with it
   on, its spans are the trace. *)
let traced_op env tally layers () =
  let timed_exec = not (Hypar_obs.Sink.enabled ()) in
  let session = Serve_client.start ~timed_exec () in
  let replies = ref [] in
  drive env tally session
    ~stop:(fun n -> n >= Array.length env.script)
    ~seen:(fun r -> replies := r :: !replies);
  let stats, unanswered = Serve_client.stop session in
  if unanswered > 0 then Tally.record tally (Some (Printf.sprintf "%d requests never answered" unanswered));
  if timed_exec then Serve_client.record_server layers !replies stats;
  List.map (fun (r : Serve_client.reply) -> r.latency_ms) !replies

(* (program, area, CGC count) pairs one script cycle characterises *)
let distinct_platforms env =
  Array.to_list env.script
  |> List.concat_map (fun e ->
         match e.kind with
         | Partition _ -> [ (e.file, 1500, 2) ]
         | Explore ->
           List.concat_map (fun a -> List.map (fun c -> (e.file, a, c)) explore_cgcs) explore_areas
         | Analyze | Health -> [])
  |> List.sort_uniq compare |> List.length

(* Every layer's public calls on each distinct program of the mix, as
   the server would run them (no inputs, default platform). *)
let layer_pass env layers tally =
  let files =
    Array.to_list env.script
    |> List.filter_map (fun e -> if e.kind = Health then None else Some e.file)
    |> List.sort_uniq compare
  in
  List.iter
    (fun file ->
      let text = In_channel.with_open_bin file In_channel.input_all in
      let name = Filename.basename file in
      let cdfg =
        Calls.optimize layers
          (if Filename.check_suffix file ".hbc" then Calls.bytecode layers ~name text
           else Calls.minic layers ~name text)
      in
      let p = Calls.profile layers cdfg in
      Calls.kernels layers p;
      (* the program's first partition entry, checked against its
         served answer *)
      List.init (Array.length env.script) Fun.id
      |> List.find_map (fun i ->
             match env.script.(i) with
             | { kind = Partition t; file = f; _ } when f = file -> Some (i, t)
             | _ -> None)
      |> Option.iter (fun (i, timing_constraint) ->
             let r = Calls.partition layers (serve_platform ()) ~timing_constraint p in
             let served =
               Option.bind (payload_json env i) (fun v -> field_int v [ "final"; "t_total" ])
             in
             Tally.record tally
               (if served <> None && served <> Some r.final.t_total then
                  Some (file ^ ": per-layer calls disagree with the served partition")
                else None));
      if file = "examples/minic/fir.mc" then
        ignore
          (Calls.explore layers p
             (Hypar_explore.Space.make ~areas:explore_areas ~cgcs:explore_cgcs
                ~timings:explore_timings ())))
    files;
  Layers.add layers "core.distinct_platforms" (float_of_int (distinct_platforms env))
