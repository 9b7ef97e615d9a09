module Ir = Hypar_ir
module Analysis = Hypar_analysis
module Profiling = Hypar_profiling
module Finegrain = Hypar_finegrain
module Coarsegrain = Hypar_coarsegrain

type times = {
  t_fpga : int;
  t_coarse_cgc : int;
  t_coarse : int;
  t_comm : int;
  t_total : int;
}

type step = {
  step_index : int;
  moved_block : int;
  kernel : Analysis.Kernel.entry;
  on_cgc : int list;
  times : times;
  meets_constraint : bool;
}

type status = Met_without_partitioning | Met_after of int | Infeasible

type skip_reason = Not_cgc_executable | No_cgc_capacity

let skip_reason_string = function
  | Not_cgc_executable -> "not CGC-executable (division)"
  | No_cgc_capacity -> "no live CGC capacity (degraded data-path)"

type t = {
  platform : Platform.t;
  timing_constraint : int;
  cdfg_name : string;
  initial : times;
  analysis : Analysis.Kernel.t;
  steps : step list;
  skipped : (int * skip_reason) list;
  status : status;
  final : times;
  moved : int list;
  fine_cycles_per_iter : int array;
  coarse_latency : int option array;
  comm_cycles_per_iter : int array;
  freq : int array;
}

(* ---- characterisation, in three memoisable layers ------------------------

   A block's fine-grain price depends only on the FPGA, its coarse-grain
   price only on the CGC data-path and its health, and everything else the
   engine reads only on the application.  Each layer is computed on its
   own, so a caller sweeping many platforms can compute each one once per
   distinct key and assemble the per-platform characterisation cheaply. *)

type app_layer = {
  cdfg : Ir.Cdfg.t;
  n : int;
  freq : int array;
  entries : int array;
  edges : ((int * int) * int) list;
  live : Ir.Live.t;
  live_in_words : int array;
  live_out_words : int array;
}

type fine_layer = {
  cycles_per_iteration : int array;
  partition_count : int array;
}

type coarse_layer = {
  latency : int option array;
  pipeline : (int * int) option array;
}

type characterisation = {
  platform : Platform.t;
  app : app_layer;
  fine : fine_layer;
  coarse : coarse_layer;
  comm : int array;
}

let app_layer cdfg profile =
  let n = Ir.Cdfg.block_count cdfg in
  let live = Ir.Live.analyse (Ir.Cdfg.cfg cdfg) in
  let edges = profile.Profiling.Profile.edges in
  let entries = Array.make n 0 in
  List.iter
    (fun (((src, dst), c) : (int * int) * int) ->
      if src <> dst then entries.(dst) <- entries.(dst) + c)
    edges;
  {
    cdfg;
    n;
    freq = Array.init n (fun i -> Profiling.Profile.freq profile i);
    entries;
    edges;
    live;
    live_in_words = Array.init n (Ir.Live.live_in_count live);
    live_out_words = Array.init n (Ir.Live.defs_live_out_count live);
  }

let block_words app i = app.live_in_words.(i) + app.live_out_words.(i)

let fine_layer app fpga =
  let cycles_per_iteration = Array.make app.n 0 in
  let partition_count = Array.make app.n 0 in
  for i = 0 to app.n - 1 do
    let p = Finegrain.Fine_map.price fpga app.cdfg i in
    cycles_per_iteration.(i) <- p.Finegrain.Fine_map.cycles_per_iteration;
    partition_count.(i) <- p.Finegrain.Fine_map.partition_count
  done;
  Hypar_obs.Counter.incr
    ~by:(Array.fold_left ( + ) 0 partition_count)
    "fine.temporal_partitions";
  { cycles_per_iteration; partition_count }

let coarse_layer ?(cgc_pipelining = false) app cgc health =
  let latency =
    Array.init app.n (fun i ->
        Coarsegrain.Coarse_map.latency ?health cgc (Ir.Cdfg.dfg app.cdfg i))
  in
  let degraded =
    match health with
    | Some h -> not (Coarsegrain.Cgc.healthy cgc h)
    | None -> false
  in
  let cfg = Ir.Cdfg.cfg app.cdfg in
  (* pipelining applies to self-looping kernels only; on a degraded
     data-path the modulo scheduler would over-claim dead resources, so
     moved kernels conservatively fall back to non-pipelined pricing *)
  let pipeline =
    Array.init app.n (fun i ->
        if (not cgc_pipelining) || degraded then None
        else if not (List.mem i (Ir.Cfg.successors cfg i)) then None
        else
          match
            Coarsegrain.Modulo.analyse cgc
              (Ir.Cdfg.dfg app.cdfg i)
              ~carried:(Ir.Live.live_in app.live i)
          with
          | Some m ->
            Some (m.Coarsegrain.Modulo.ii, m.Coarsegrain.Modulo.latency)
          | None -> None)
  in
  { latency; pipeline }

let assemble_layers app fine coarse (platform : Platform.t) =
  let model = platform.Platform.comm in
  {
    platform;
    app;
    fine;
    coarse;
    comm =
      Array.init app.n (fun i -> Comm.words_cost model (block_words app i));
  }

let assemble app fine coarse platform =
  Hypar_obs.Span.with_ ~cat:"engine" "engine.characterise" @@ fun () ->
  assemble_layers app fine coarse platform

let characterise ?cgc_pipelining (platform : Platform.t) cdfg profile =
  Hypar_obs.Span.with_ ~cat:"engine" "engine.characterise" @@ fun () ->
  let app = app_layer cdfg profile in
  let fine = fine_layer app platform.Platform.fpga in
  let coarse =
    coarse_layer ?cgc_pipelining app platform.Platform.cgc
      platform.Platform.cgc_health
  in
  assemble_layers app fine coarse platform

let times_of ~pricing (c : characterisation) ~moved =
  let a = c.app in
  let is_moved = Array.make a.n false in
  List.iter (fun i -> is_moved.(i) <- true) moved;
  let t_fpga = ref 0 and t_coarse_cgc = ref 0 in
  for i = 0 to a.n - 1 do
    if a.freq.(i) > 0 then
      if is_moved.(i) then
        match (c.coarse.latency.(i), c.coarse.pipeline.(i)) with
        | _, Some (ii, lat) ->
          (* software-pipelined kernel: each loop entry pays the full
             latency once, every further iteration only the II *)
          let starts = max 1 (min a.entries.(i) a.freq.(i)) in
          t_coarse_cgc :=
            !t_coarse_cgc + ((a.freq.(i) - starts) * ii) + (starts * lat)
        | Some lat, None -> t_coarse_cgc := !t_coarse_cgc + (lat * a.freq.(i))
        | None, None -> invalid_arg "Engine: moved an unmappable block"
      else t_fpga := !t_fpga + (c.fine.cycles_per_iteration.(i) * a.freq.(i))
  done;
  let t_comm =
    match pricing with
    | `Transition ->
      Comm.transition_cycles c.platform.Platform.comm a.live ~edges:a.edges
        ~on_cgc:(fun i -> is_moved.(i))
    | `Per_invocation ->
      List.fold_left (fun acc i -> acc + (c.comm.(i) * a.freq.(i))) 0 moved
  in
  let t_coarse = Platform.cgc_to_fpga_cycles c.platform !t_coarse_cgc in
  {
    t_fpga = !t_fpga;
    t_coarse_cgc = !t_coarse_cgc;
    t_coarse;
    t_comm;
    t_total = !t_fpga + t_coarse + t_comm;
  }

exception
  Delta_mismatch of {
    moved : int list;
    field : string;
    full : int;
    incremental : int;
  }

let () =
  Printexc.register_printer (function
    | Delta_mismatch { moved; field; full; incremental } ->
      Some
        (Printf.sprintf
           "Delta_mismatch(%s: full=%d incremental=%d, moved=[%s])" field full
           incremental
           (String.concat ";" (List.map string_of_int moved)))
    | _ -> None)

let check_incremental = ref false

let evaluate ?(comm_pricing = `Transition) ?cgc_pipelining
    (platform : Platform.t) cdfg profile =
  let c = characterise ?cgc_pipelining platform cdfg profile in
  fun moved -> times_of ~pricing:comm_pricing c ~moved

(* Incremental recharacterisation: [times_of] walks every block and every
   profile edge on each call; over a whole greedy trajectory that is
   O(moves * (blocks + edges)).  [Inc] keeps the running sums and updates
   them per move in O(degree of the moved block): the moved block's own
   fine/coarse contribution flips sides, and only its incident CFG edges
   can change boundary state.  The invariants the delta update relies on:

   - a block's fine and coarse prices are independent of the moved set;
   - [`Transition] comm prices are per-edge and depend only on whether
     the edge crosses the partition boundary and in which direction;
   - [`Per_invocation] comm prices are per-block and additive;
   - self edges never cross the boundary, so they are dropped up front.

   With [check_incremental] set, every [times] read is cross-checked
   against the full [times_of] recompute and a mismatch raises
   {!Delta_mismatch}. *)
module Inc = struct
  type t = {
    c : characterisation;
    pricing : [ `Transition | `Per_invocation ];
    (* inter-block profile edges, flattened, with both boundary prices
       precomputed (count * words_cost of the crossing direction) *)
    edge_src : int array;
    edge_dst : int array;
    edge_cost_dst_cgc : int array;
    edge_cost_src_cgc : int array;
    incident : int list array;  (* block -> incident inter-block edges *)
    is_moved : bool array;
    mutable moved_rev : int list;
    mutable t_fpga : int;
    mutable t_coarse_cgc : int;
    mutable t_comm : int;
  }

  let initial_fpga (c : characterisation) =
    let s = ref 0 in
    for i = 0 to c.app.n - 1 do
      if c.app.freq.(i) > 0 then
        s := !s + (c.fine.cycles_per_iteration.(i) * c.app.freq.(i))
    done;
    !s

  let make ~pricing (c : characterisation) =
    let a = c.app in
    let inter = List.filter (fun ((s, d), _) -> s <> d) a.edges in
    let ne = List.length inter in
    let edge_src = Array.make ne 0 in
    let edge_dst = Array.make ne 0 in
    let edge_cost_dst_cgc = Array.make ne 0 in
    let edge_cost_src_cgc = Array.make ne 0 in
    let incident = Array.make a.n [] in
    let model = c.platform.Platform.comm in
    List.iteri
      (fun e ((s, d), count) ->
        edge_src.(e) <- s;
        edge_dst.(e) <- d;
        edge_cost_dst_cgc.(e) <-
          count * Comm.words_cost model a.live_in_words.(d);
        edge_cost_src_cgc.(e) <-
          count * Comm.words_cost model a.live_out_words.(s);
        incident.(s) <- e :: incident.(s);
        incident.(d) <- e :: incident.(d))
      inter;
    {
      c;
      pricing;
      edge_src;
      edge_dst;
      edge_cost_dst_cgc;
      edge_cost_src_cgc;
      incident;
      is_moved = Array.make a.n false;
      moved_rev = [];
      t_fpga = initial_fpga c;
      t_coarse_cgc = 0;
      t_comm = 0;
    }

  let reset t =
    Array.fill t.is_moved 0 t.c.app.n false;
    t.moved_rev <- [];
    t.t_fpga <- initial_fpga t.c;
    t.t_coarse_cgc <- 0;
    t.t_comm <- 0

  let moved t = List.rev t.moved_rev

  let edge_contrib t e =
    match (t.is_moved.(t.edge_src.(e)), t.is_moved.(t.edge_dst.(e))) with
    | true, true | false, false -> 0
    | false, true -> t.edge_cost_dst_cgc.(e)
    | true, false -> t.edge_cost_src_cgc.(e)

  let coarse_cycles t i =
    let a = t.c.app in
    match (t.c.coarse.latency.(i), t.c.coarse.pipeline.(i)) with
    | _, Some (ii, lat) ->
      let starts = max 1 (min a.entries.(i) a.freq.(i)) in
      ((a.freq.(i) - starts) * ii) + (starts * lat)
    | Some lat, None -> lat * a.freq.(i)
    | None, None -> invalid_arg "Engine: moved an unmappable block"

  let flip t i target =
    if t.is_moved.(i) = target then
      invalid_arg "Engine.Inc: block already on that side";
    (match t.pricing with
    | `Transition ->
      List.iter
        (fun e -> t.t_comm <- t.t_comm - edge_contrib t e)
        t.incident.(i)
    | `Per_invocation -> ());
    t.is_moved.(i) <- target;
    let sign = if target then 1 else -1 in
    let freq = t.c.app.freq.(i) in
    (* freq-0 blocks price to zero on both sides and [times_of] never
       inspects their mappability, so neither do we *)
    if freq > 0 then begin
      t.t_fpga <- t.t_fpga - (sign * t.c.fine.cycles_per_iteration.(i) * freq);
      t.t_coarse_cgc <- t.t_coarse_cgc + (sign * coarse_cycles t i)
    end;
    match t.pricing with
    | `Transition ->
      List.iter
        (fun e -> t.t_comm <- t.t_comm + edge_contrib t e)
        t.incident.(i)
    | `Per_invocation -> t.t_comm <- t.t_comm + (sign * t.c.comm.(i) * freq)

  let move t i =
    flip t i true;
    t.moved_rev <- i :: t.moved_rev

  let unmove t i =
    flip t i false;
    t.moved_rev <- List.filter (fun j -> j <> i) t.moved_rev

  let times t =
    let t_coarse = Platform.cgc_to_fpga_cycles t.c.platform t.t_coarse_cgc in
    let r =
      {
        t_fpga = t.t_fpga;
        t_coarse_cgc = t.t_coarse_cgc;
        t_coarse;
        t_comm = t.t_comm;
        t_total = t.t_fpga + t_coarse + t.t_comm;
      }
    in
    if !check_incremental then begin
      let full = times_of ~pricing:t.pricing t.c ~moved:(moved t) in
      let check field full_v inc_v =
        if full_v <> inc_v then
          raise
            (Delta_mismatch
               { moved = moved t; field; full = full_v; incremental = inc_v })
      in
      check "t_fpga" full.t_fpga r.t_fpga;
      check "t_coarse_cgc" full.t_coarse_cgc r.t_coarse_cgc;
      check "t_coarse" full.t_coarse r.t_coarse;
      check "t_comm" full.t_comm r.t_comm;
      check "t_total" full.t_total r.t_total
    end;
    r

  let create ?(comm_pricing = `Transition) ?cgc_pipelining platform cdfg
      profile =
    make ~pricing:comm_pricing
      (characterise ?cgc_pipelining platform cdfg profile)
end

(* Group the kernel worklist by innermost loop when the engine runs at
   loop granularity: each movement then transfers a whole loop body. *)
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

(* ---- the greedy loop: one plan, one trajectory per platform, many cuts ---

   The timing constraint never changes which kernel moves next; it only
   decides where the loop stops.  Nor does the platform: the move order,
   the skip reasons and every step's kernel and moved set depend only on
   the kernel order and on which blocks the coarse layer maps.  A plan
   holds all of that, one entry per worklist group — the group's kernels
   that cannot move, then the step that moves the rest, if any — so
   platforms sharing a coarse layer share it.

   A trajectory prices one platform's plan: entry [k] is performed (the
   skip counters, one [engine.move] span, the delta-updated Eq.-2 read)
   the first time a cut reaches it, so a cut that stops early performs
   exactly the moves, spans and counters of a loop that stopped there.
   An exception raised while performing an entry is kept as that entry:
   every cut that reaches it re-raises it, and no cut that stops earlier
   sees it. *)

type planned_step = {
  index : int;  (* 1-based step number *)
  first : Analysis.Kernel.entry;  (* the group's first movable kernel *)
  blocks : int list;  (* the group's movable blocks, in worklist order *)
  cumulative : int list;  (* every block moved so far, in move order *)
}

type plan_entry = {
  group_skipped : (int * skip_reason) list;
  move : planned_step option;
}

type plan = { analysis : Analysis.Kernel.t; entries : plan_entry array }

let plan ?(granularity = `Block) ~analysis app coarse =
  let cdfg = app.cdfg in
  (* distinguish a DFG the CGC can never run (division) from one only the
     current degradation rules out *)
  let skip_reason (k : Analysis.Kernel.entry) =
    if Coarsegrain.Schedule.supported (Ir.Cdfg.dfg cdfg k.block_id) then
      (k.block_id, No_cgc_capacity)
    else (k.block_id, Not_cgc_executable)
  in
  (* at loop granularity, each "kernel" of the worklist is a whole loop's
     worth of blocks, still ordered by (summed) Eq.-1 weight *)
  let groups =
    let kernels = analysis.Analysis.Kernel.kernels in
    match granularity with
    | `Block -> List.map (fun k -> [ k ]) kernels
    | `Loop -> group_kernels_by_loop cdfg kernels
  in
  (* [count] steps so far; [moved]: the cumulative moved set, newest
     first *)
  let entry (count, moved, entries) group =
    let movable, unmovable =
      List.partition
        (fun (k : Analysis.Kernel.entry) -> coarse.latency.(k.block_id) <> None)
        group
    in
    let group_skipped = List.map skip_reason unmovable in
    match movable with
    | [] -> (count, moved, { group_skipped; move = None } :: entries)
    | first :: _ ->
      let blocks =
        List.map (fun (k : Analysis.Kernel.entry) -> k.block_id) movable
      in
      let moved = List.rev_append blocks moved in
      let move =
        { index = count + 1; first; blocks; cumulative = List.rev moved }
      in
      (count + 1, moved, { group_skipped; move = Some move } :: entries)
  in
  let _, _, entries = List.fold_left entry (0, [], []) groups in
  { analysis; entries = Array.of_list (List.rev entries) }

type trajectory = {
  char : characterisation;
  plan : plan;
  inc : Inc.t;
  start : times;  (* the all-FPGA mapping *)
  performed : step option array;  (* per plan entry, once reached *)
  mutable reached : int;  (* entries [0, reached) are performed *)
  mutable failure : exn option;  (* raised performing entry [reached] *)
}

(* each read is O(1) off the running sums (and cross-checked against the
   full recompute when [check_incremental] is set) *)
let read_times inc =
  Hypar_obs.Counter.incr "engine.evaluations";
  Inc.times inc

let trajectory ?(comm_pricing = `Transition) plan (c : characterisation) =
  let inc = Inc.make ~pricing:comm_pricing c in
  let start = read_times inc in
  {
    char = c;
    plan;
    inc;
    start;
    performed = Array.make (Array.length plan.entries) None;
    reached = 0;
    failure = None;
  }

let move_span (s : planned_step) f =
  if Hypar_obs.Sink.enabled () then
    Hypar_obs.Span.with_ ~cat:"engine" "engine.move"
      ~args:
        [
          ("block", Hypar_obs.Event.Int s.first.block_id);
          ("step", Hypar_obs.Event.Int s.index);
        ]
      f
  else f ()

let perform tr (e : plan_entry) =
  List.iter
    (fun (_, reason) ->
      Hypar_obs.Counter.incr "engine.skipped";
      if reason = No_cgc_capacity then
        Hypar_obs.Counter.incr "resilience.fault.fallback")
    e.group_skipped;
  Option.map
    (fun s ->
      move_span s @@ fun () ->
      Hypar_obs.Counter.incr "engine.moves";
      List.iter (Inc.move tr.inc) s.blocks;
      (* [meets_constraint] belongs to a cut, which sets it *)
      {
        step_index = s.index;
        moved_block = s.first.block_id;
        kernel = s.first;
        on_cgc = s.cumulative;
        times = read_times tr.inc;
        meets_constraint = false;
      })
    e.move

(* performs every entry up to [k], or re-raises the exception kept at or
   before it *)
let rec reach tr k =
  if k >= tr.reached then begin
    Option.iter raise tr.failure;
    (match perform tr tr.plan.entries.(tr.reached) with
    | s ->
      tr.performed.(tr.reached) <- s;
      tr.reached <- tr.reached + 1
    | exception exn ->
      tr.failure <- Some exn;
      raise exn);
    reach tr k
  end

let cut ?(max_moves = max_int) ~timing_constraint tr =
  let c = tr.char in
  let base =
    {
      platform = c.platform;
      timing_constraint;
      cdfg_name = Ir.Cdfg.name c.app.cdfg;
      initial = tr.start;
      analysis = tr.plan.analysis;
      steps = [];
      skipped = [];
      status = Met_without_partitioning;
      final = tr.start;
      moved = [];
      fine_cycles_per_iter = c.fine.cycles_per_iteration;
      coarse_latency = c.coarse.latency;
      comm_cycles_per_iter = c.comm;
      freq = c.app.freq;
    }
  in
  let stop status steps skipped =
    let final, moved =
      match steps with [] -> (tr.start, []) | s :: _ -> (s.times, s.on_cgc)
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
  let n = Array.length tr.performed in
  let rec go k steps skipped count =
    if count >= max_moves || k >= n then stop Infeasible steps skipped
    else begin
      reach tr k;
      let skipped = List.rev_append tr.plan.entries.(k).group_skipped skipped in
      match tr.performed.(k) with
      | None -> go (k + 1) steps skipped count
      | Some s when s.times.t_total <= timing_constraint ->
        stop (Met_after s.step_index)
          ({ s with meets_constraint = true } :: steps)
          skipped
      | Some s -> go (k + 1) (s :: steps) skipped (count + 1)
    end
  in
  if tr.start.t_total <= timing_constraint then base else go 0 [] [] 0

let run ?max_moves ?comm_pricing ?cgc_pipelining ?granularity
    ?verify_ir (platform : Platform.t) ~timing_constraint cdfg profile =
  Hypar_obs.Span.with_ ~cat:"engine" "engine.run"
    ~args:
      [
        ("app", Hypar_obs.Event.Str (Ir.Cdfg.name cdfg));
        ("constraint", Hypar_obs.Event.Int timing_constraint);
      ]
  @@ fun () ->
  if Option.value verify_ir ~default:!Ir.Passes.verify_passes then
    Ir.Verify.check_exn ~context:"engine input" cdfg;
  let c = characterise ?cgc_pipelining platform cdfg profile in
  let analysis = Analysis.Kernel.analyse cdfg profile in
  trajectory ?comm_pricing (plan ?granularity ~analysis c.app c.coarse) c
  |> cut ?max_moves ~timing_constraint

let status_key = function
  | Met_without_partitioning -> "met-without-partitioning"
  | Met_after n -> "met-after-" ^ string_of_int n
  | Infeasible -> "infeasible"

let status_of_key = function
  | "met-without-partitioning" -> Some Met_without_partitioning
  | "infeasible" -> Some Infeasible
  | s -> (
    let prefix = "met-after-" in
    let p = String.length prefix in
    if not (String.starts_with ~prefix s) then None
    else
      let digits = String.sub s p (String.length s - p) in
      (* only what [status_key] writes: "0x1F", "+3" and "007" parse as
         integers but do not re-render to themselves *)
      match int_of_string_opt digits with
      | Some n when n >= 1 && string_of_int n = digits -> Some (Met_after n)
      | _ -> None)

let status_label = function
  | Met_without_partitioning -> "met without partitioning"
  | Met_after n -> Printf.sprintf "met after %d movement(s)" n
  | Infeasible -> "infeasible"

let status_met = function
  | Met_without_partitioning | Met_after _ -> true
  | Infeasible -> false

let reduction_of_totals ~initial ~final =
  if initial = 0 then 0.0
  else 100.0 *. float_of_int (initial - final) /. float_of_int initial

let reduction_percent t =
  reduction_of_totals ~initial:t.initial.t_total ~final:t.final.t_total

let met t = status_met t.status

let pp_times ppf x =
  Format.fprintf ppf
    "t_fpga=%d t_coarse=%d (=%d CGC cycles) t_comm=%d t_total=%d" x.t_fpga
    x.t_coarse x.t_coarse_cgc x.t_comm x.t_total

let pp ppf t =
  Format.fprintf ppf "@[<v>partitioning of %s on %s (constraint %d):@,"
    t.cdfg_name t.platform.Platform.name t.timing_constraint;
  Format.fprintf ppf "  initial (all-FPGA): %a@," pp_times t.initial;
  List.iter
    (fun s ->
      Format.fprintf ppf "  step %d: move BB%d -> %a%s@," s.step_index
        s.moved_block pp_times s.times
        (if s.meets_constraint then "  [met]" else ""))
    t.steps;
  List.iter
    (fun (b, reason) ->
      Format.fprintf ppf "  skipped BB%d: %s@," b (skip_reason_string reason))
    t.skipped;
  Format.fprintf ppf "  %s@," (status_label t.status);
  Format.fprintf ppf "  reduction: %.1f%%@]" (reduction_percent t)
