module Ir = Hypar_ir

type placement = { cycle : int; chain : int; depth : int }

type t = { placements : placement array; makespan : int }

exception Unsupported of string

type kind = Free | Mem | Node

let kind_of instr =
  match instr with
  | Ir.Instr.Mov _ -> Free
  | Ir.Instr.Load _ | Ir.Instr.Store _ -> Mem
  | Ir.Instr.Bin _ | Ir.Instr.Un _ | Ir.Instr.Mul _ | Ir.Instr.Select _ -> Node
  | Ir.Instr.Div _ | Ir.Instr.Rem _ ->
    raise (Unsupported "CGC nodes cannot execute division/remainder")

(* true iff [f] holds for some node's instruction *)
let exists_instr f dfg =
  let rec from i =
    i < Ir.Dfg.node_count dfg && (f (Ir.Dfg.node dfg i).Ir.Dfg.instr || from (i + 1))
  in
  from 0

let supported dfg =
  not
    (exists_instr
       (function
         | Ir.Instr.Div _ | Ir.Instr.Rem _ -> true
         | Ir.Instr.Mov _ | Ir.Instr.Load _ | Ir.Instr.Store _ | Ir.Instr.Bin _
         | Ir.Instr.Un _ | Ir.Instr.Mul _ | Ir.Instr.Select _ ->
           false)
       dfg)

let is_mul = function Ir.Instr.Mul _ -> true | _ -> false

(* Supported on a (possibly degraded) data-path: op support as above, plus
   every node-op kind present must have at least one live column whose
   first slot can host it — that column is reachable at the start of any
   cycle, which also guarantees the greedy scheduler below terminates. *)
let supported_on ?health cgc dfg =
  supported dfg
  &&
  match health with
  | None -> true
  | Some (h : Cgc.health) ->
    let needs_mul = exists_instr is_mul dfg in
    let needs_alu =
      exists_instr
        (function
          | Ir.Instr.Bin _ | Ir.Instr.Un _ | Ir.Instr.Select _ -> true
          | Ir.Instr.Mul _ | Ir.Instr.Mov _ | Ir.Instr.Load _
          | Ir.Instr.Store _ | Ir.Instr.Div _ | Ir.Instr.Rem _ ->
            false)
        dfg
    in
    let columns = min (Cgc.chains cgc) (Array.length h.Cgc.col_rows) in
    let some_column pred =
      let found = ref false in
      for c = 0 to columns - 1 do
        if h.Cgc.col_rows.(c) >= 1 && pred c then found := true
      done;
      !found
    in
    (not needs_mul || some_column (fun c -> not (List.mem (c, 1) h.Cgc.no_mul)))
    && (not needs_alu || some_column (fun c -> not (List.mem (c, 1) h.Cgc.no_alu)))

(* Priority: by default most critical first (smallest ALAP), then most
   successors, then program order — the DFG's own [critical_order], kept
   across geometries.  `Asap and `Program are the ablation baselines,
   ordered afresh.  Either order is total, so it does not depend on the
   sort.  The result is the caller's to mutate. *)
let priority_order ?(priority = `Alap) dfg =
  match priority with
  | `Alap -> Array.copy (Ir.Dfg.critical_order dfg)
  | `Program -> Array.init (Ir.Dfg.node_count dfg) Fun.id
  | `Asap ->
    let n = Ir.Dfg.node_count dfg in
    let level = Ir.Dfg.asap dfg in
    let fanout = Array.init n (fun i -> List.length (Ir.Dfg.succs dfg i)) in
    let ids = Array.init n Fun.id in
    Array.stable_sort
      (fun a b ->
        match Int.compare level.(a) level.(b) with
        | 0 -> (
          match Int.compare fanout.(b) fanout.(a) with
          | 0 -> Int.compare a b
          | c -> c)
        | c -> c)
      ids;
    ids

(* Per-cycle resources: [Cgc.chains cgc] columns, each with [rows] node
   slots.  Independent operations may share a column (each node of a CGC
   is a full compute unit); a *same-cycle dependent* operation must sit in
   its producer's column, below it — the steering-logic chaining — and
   only onto the current tail of that dependency chain.

   Each cycle makes passes over the unscheduled nodes in priority order
   until a pass places nothing.  A node is tried once all its
   predecessors are scheduled ([waiting] counts the ones that are not);
   [pending] keeps the unscheduled nodes in priority order and is
   compacted as a pass places them; [tail] holds the cycle in which a
   node is the tail of its column's chain. *)
let schedule ?priority ?health cgc dfg =
  let n = Ir.Dfg.node_count dfg in
  let kinds =
    Array.init n (fun i -> kind_of (Ir.Dfg.node dfg i).Ir.Dfg.instr)
  in
  let preds = Ir.Dfg.pred_arrays dfg in
  let placements = Array.make n { cycle = -1; chain = -1; depth = 0 } in
  let finish = Array.make n (-1) in
  let columns = Cgc.chains cgc in
  (match health with
  | Some (h : Cgc.health) when Array.length h.Cgc.col_rows <> columns ->
    invalid_arg "Schedule.schedule: health does not match the CGC geometry"
  | Some h when not (supported_on ~health:h cgc dfg) ->
    invalid_arg "Schedule.schedule: DFG not executable on this degraded CGC"
  | _ -> ());
  (* usable depth per column and per-slot functional-unit capability; the
     healthy defaults make the constrained code paths below coincide
     exactly with the unconstrained ones *)
  let cap =
    match health with
    | None -> Array.make columns cgc.Cgc.rows
    | Some h -> Array.copy h.Cgc.col_rows
  in
  let slot_ok v c depth =
    match health with
    | None -> true
    | Some (h : Cgc.health) ->
      let dead = if is_mul (Ir.Dfg.node dfg v).Ir.Dfg.instr then h.Cgc.no_mul else h.Cgc.no_alu in
      not (List.mem (c, depth) dead)
  in
  let waiting = Array.map Array.length preds in
  let pending = priority_order ?priority dfg in
  let pending_count = ref n in
  let column_used = Array.make columns 0 in
  let tail = Array.make n 0 in
  let bound = (10 * n) + 100 + (2 * n * columns) in
  let t = ref 1 in
  let mem_used = ref 0 in
  (* emptiest column first, so later chain extensions find room; a
     column qualifies only if its next depth slot is alive for [v] *)
  let pick_column v =
    let best = ref (-1) in
    for c = columns - 1 downto 0 do
      if
        column_used.(c) < cap.(c)
        && slot_ok v c (column_used.(c) + 1)
        && (!best = -1 || column_used.(c) < column_used.(!best))
      then best := c
    done;
    !best
  in
  let place v column =
    column_used.(column) <- column_used.(column) + 1;
    placements.(v) <- { cycle = !t; chain = column; depth = column_used.(column) };
    finish.(v) <- !t;
    tail.(v) <- !t
  in
  let try_schedule v =
    let ps = preds.(v) in
    match kinds.(v) with
    | Free ->
      let f = Array.fold_left (fun acc p -> max acc finish.(p)) 0 ps in
      placements.(v) <- { cycle = f; chain = -1; depth = 0 };
      finish.(v) <- f;
      true
    | Mem ->
      if
        !mem_used < cgc.Cgc.mem_ports
        && Array.for_all (fun p -> finish.(p) < !t) ps
      then begin
        incr mem_used;
        placements.(v) <- { cycle = !t; chain = -1; depth = 0 };
        finish.(v) <- !t;
        true
      end
      else false
    | Node ->
      (* every predecessor done before this cycle, except node-op
         producers of this cycle: chaining onto one of them is allowed *)
      let producer = ref (-1) and producers = ref 0 and ready = ref true in
      Array.iter
        (fun p ->
          if finish.(p) = !t then
            if kinds.(p) = Node then begin
              producer := p;
              incr producers
            end
            else ready := false
          else if finish.(p) > !t then ready := false)
        ps;
      if not !ready then false
      else if !producers = 0 then (
        match pick_column v with
        | -1 -> false
        | c ->
          place v c;
          true)
      else if !producers = 1 then begin
        let p = !producer in
        let c = placements.(p).chain in
        if
          c >= 0 && tail.(p) = !t
          && column_used.(c) < cap.(c)
          && slot_ok v c (column_used.(c) + 1)
        then begin
          tail.(p) <- 0;
          place v c;
          true
        end
        else false
      end
      else false (* cannot chain from two producers *)
  in
  while !pending_count > 0 do
    if !t > bound then
      invalid_arg "Schedule.schedule: no progress (internal error)";
    Array.fill column_used 0 columns 0;
    mem_used := 0;
    let progress = ref true in
    while !progress do
      progress := false;
      let kept = ref 0 in
      for k = 0 to !pending_count - 1 do
        let v = pending.(k) in
        if waiting.(v) = 0 && try_schedule v then begin
          List.iter (fun s -> waiting.(s) <- waiting.(s) - 1) (Ir.Dfg.succs dfg v);
          progress := true
        end
        else begin
          pending.(!kept) <- v;
          incr kept
        end
      done;
      pending_count := !kept
    done;
    incr t
  done;
  { placements; makespan = Array.fold_left max 0 finish }

let is_valid ?health cgc dfg t =
  let ok = ref true in
  let n = Ir.Dfg.node_count dfg in
  (match health with
  | None -> ()
  | Some (h : Cgc.health) ->
    Array.iteri
      (fun v (p : placement) ->
        if p.chain >= 0 then begin
          if
            p.chain >= Array.length h.Cgc.col_rows
            || p.depth > h.Cgc.col_rows.(p.chain)
          then ok := false;
          let dead =
            if is_mul (Ir.Dfg.node dfg v).Ir.Dfg.instr then h.Cgc.no_mul
            else h.Cgc.no_alu
          in
          if List.mem (p.chain, p.depth) dead then ok := false
        end)
      t.placements);
  if Array.length t.placements <> n then ok := false
  else begin
    let kinds = Array.init n (fun i -> kind_of (Ir.Dfg.node dfg i).Ir.Dfg.instr) in
    (* dependences *)
    for v = 0 to n - 1 do
      let pv = t.placements.(v) in
      List.iter
        (fun p ->
          let pp = t.placements.(p) in
          let chained =
            kinds.(v) = Node && kinds.(p) = Node && pp.cycle = pv.cycle
            && pp.chain = pv.chain
            && pp.depth < pv.depth
          in
          let before = pp.cycle < pv.cycle in
          let free_ok = kinds.(v) = Free && pp.cycle <= pv.cycle in
          if not (before || chained || free_ok) then ok := false)
        (Ir.Dfg.preds dfg v)
    done;
    (* per-cycle resources *)
    let by_cycle = Hashtbl.create 16 in
    Array.iteri
      (fun v p ->
        if kinds.(v) <> Free then begin
          let l =
            match Hashtbl.find_opt by_cycle p.cycle with Some l -> l | None -> []
          in
          Hashtbl.replace by_cycle p.cycle ((v, p) :: l)
        end)
      t.placements;
    Hashtbl.iter
      (fun _cycle entries ->
        let mem = List.length (List.filter (fun (v, _) -> kinds.(v) = Mem) entries) in
        if mem > cgc.Cgc.mem_ports then ok := false;
        let chain_ids =
          List.sort_uniq compare
            (List.filter_map
               (fun (_, (p : placement)) -> if p.chain >= 0 then Some p.chain else None)
               entries)
        in
        if List.length chain_ids > Cgc.chains cgc then ok := false;
        List.iter
          (fun c ->
            let depths =
              List.sort compare
                (List.filter_map
                   (fun (_, (p : placement)) ->
                     if p.chain = c then Some p.depth else None)
                   entries)
            in
            if List.length depths > cgc.Cgc.rows then ok := false;
            List.iteri (fun i d -> if d <> i + 1 then ok := false) depths)
          chain_ids)
      by_cycle
  end;
  !ok

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule: makespan=%d@," t.makespan;
  Array.iteri
    (fun v p ->
      Format.fprintf ppf "  n%-3d cycle=%-4d chain=%-3d depth=%d@," v p.cycle
        p.chain p.depth)
    t.placements;
  Format.fprintf ppf "@]"
