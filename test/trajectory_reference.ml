(* Reference oracle for the greedy loop: {!Hypar_core.Engine.trajectory}
   as it was before a sweep shared one move plan per coarse layer — a
   memoised [Seq.t] of entries, each deciding its group's movable kernels
   and skip reasons from the characterisation, then moving them on its
   own incremental state, with every exception kept as an entry — kept
   here to cross-check cuts, counters and [engine.move] spans. *)

module Ir = Hypar_ir
module Analysis = Hypar_analysis
module Engine = Hypar_core.Engine

(* innermost-loop grouping of the worklist at loop granularity *)
let group_kernels_by_loop cdfg (kernels : Analysis.Kernel.entry list) =
  let cfg = Ir.Cdfg.cfg cdfg in
  let loops = Ir.Loop.find cfg in
  let innermost_of b =
    List.fold_left
      (fun acc (l : Ir.Loop.t) ->
        if List.mem b l.Ir.Loop.body then
          match acc with
          | Some (best : Ir.Loop.t)
            when List.length best.Ir.Loop.body <= List.length l.Ir.Loop.body ->
            acc
          | _ -> Some l
        else acc)
      None loops
  in
  let groups : (int, Analysis.Kernel.entry list) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (k : Analysis.Kernel.entry) ->
      let key =
        match innermost_of k.block_id with
        | Some l -> l.Ir.Loop.header
        | None -> -1 - k.block_id
      in
      if not (Hashtbl.mem groups key) then order := key :: !order;
      Hashtbl.replace groups key
        (k :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
    kernels;
  let group_weight g =
    List.fold_left
      (fun acc (k : Analysis.Kernel.entry) -> acc + k.total_weight)
      0 g
  in
  List.rev_map (fun key -> List.rev (Hashtbl.find groups key)) !order
  |> List.sort (fun g1 g2 -> compare (group_weight g2) (group_weight g1))

type entry = {
  group_skipped : (int * Engine.skip_reason) list;
  step : Engine.step option;
}

type t = {
  char : Engine.characterisation;
  analysis : Analysis.Kernel.t;
  start : Engine.times;
  entries : (entry, exn) result Seq.t;
}

(* [c] supplies the latencies and the reported per-block tables; the
   moves are priced on a fresh [Engine.Inc] of the same platform *)
let trajectory ?(comm_pricing = `Transition) ?cgc_pipelining
    ?(granularity = `Block) ~analysis profile (c : Engine.characterisation) =
  let cdfg = c.Engine.app.Engine.cdfg in
  let inc =
    Engine.Inc.create ~comm_pricing ?cgc_pipelining c.Engine.platform cdfg
      profile
  in
  let read_times () =
    Hypar_obs.Counter.incr "engine.evaluations";
    Engine.Inc.times inc
  in
  let initial = read_times () in
  let skip_reason (k : Analysis.Kernel.entry) =
    Hypar_obs.Counter.incr "engine.skipped";
    if Hypar_coarsegrain.Schedule.supported (Ir.Cdfg.dfg cdfg k.block_id)
    then begin
      Hypar_obs.Counter.incr "resilience.fault.fallback";
      (k.block_id, Engine.No_cgc_capacity)
    end
    else (k.block_id, Engine.Not_cgc_executable)
  in
  (* [moved]: the cumulative moved set, newest first *)
  let rec from groups count moved () =
    match groups with
    | [] -> Seq.Nil
    | group :: rest -> (
      let movable, unmovable =
        List.partition
          (fun (k : Analysis.Kernel.entry) ->
            c.Engine.coarse.Engine.latency.(k.block_id) <> None)
          group
      in
      let group_skipped = List.map skip_reason unmovable in
      match movable with
      | [] -> Seq.Cons ({ group_skipped; step = None }, from rest count moved)
      | (k : Analysis.Kernel.entry) :: _ ->
        let moved =
          List.fold_left
            (fun moved (k : Analysis.Kernel.entry) -> k.block_id :: moved)
            moved movable
        in
        let step =
          Hypar_obs.Span.with_ ~cat:"engine" "engine.move"
            ~args:
              [
                ("block", Hypar_obs.Event.Int k.block_id);
                ("step", Hypar_obs.Event.Int (count + 1));
              ]
          @@ fun () ->
          Hypar_obs.Counter.incr "engine.moves";
          List.iter
            (fun (k : Analysis.Kernel.entry) -> Engine.Inc.move inc k.block_id)
            movable;
          {
            Engine.step_index = count + 1;
            moved_block = k.block_id;
            kernel = k;
            on_cgc = List.rev moved;
            times = read_times ();
            meets_constraint = false;
          }
        in
        Seq.Cons
          ({ group_skipped; step = Some step }, from rest (count + 1) moved))
  in
  let rec guard s () =
    match s () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (e, rest) -> Seq.Cons (Ok e, guard rest)
    | exception exn -> Seq.Cons (Error exn, Seq.empty)
  in
  let worklist () =
    let kernels = analysis.Analysis.Kernel.kernels in
    match granularity with
    | `Block -> List.map (fun k -> [ k ]) kernels
    | `Loop -> group_kernels_by_loop cdfg kernels
  in
  {
    char = c;
    analysis;
    start = initial;
    entries = Seq.memoize (guard (fun () -> from (worklist ()) 0 [] ()));
  }

let cut ?(max_moves = max_int) ~timing_constraint tr =
  let c = tr.char in
  let base =
    {
      Engine.platform = c.Engine.platform;
      timing_constraint;
      cdfg_name = Ir.Cdfg.name c.Engine.app.Engine.cdfg;
      initial = tr.start;
      analysis = tr.analysis;
      steps = [];
      skipped = [];
      status = Engine.Met_without_partitioning;
      final = tr.start;
      moved = [];
      fine_cycles_per_iter = c.Engine.fine.Engine.cycles_per_iteration;
      coarse_latency = c.Engine.coarse.Engine.latency;
      comm_cycles_per_iter = c.Engine.comm;
      freq = c.Engine.app.Engine.freq;
    }
  in
  let stop status steps skipped =
    let final, moved =
      match steps with
      | [] -> (tr.start, [])
      | (s : Engine.step) :: _ -> (s.times, s.on_cgc)
    in
    {
      base with
      steps = List.rev steps;
      skipped = List.rev skipped;
      status;
      final;
      moved;
    }
  in
  let rec go entries steps skipped count =
    if count >= max_moves then stop Engine.Infeasible steps skipped
    else
      match entries () with
      | Seq.Nil -> stop Engine.Infeasible steps skipped
      | Seq.Cons (Error exn, _) -> raise exn
      | Seq.Cons (Ok e, rest) -> (
        let skipped = List.rev_append e.group_skipped skipped in
        match e.step with
        | None -> go rest steps skipped count
        | Some s ->
          let s =
            {
              s with
              Engine.meets_constraint =
                s.Engine.times.Engine.t_total <= timing_constraint;
            }
          in
          if s.meets_constraint then
            stop (Engine.Met_after s.step_index) (s :: steps) skipped
          else go rest (s :: steps) skipped (count + 1))
  in
  if tr.start.Engine.t_total <= timing_constraint then base
  else go tr.entries [] [] 0
