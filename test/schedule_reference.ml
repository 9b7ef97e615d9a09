(* Reference oracle for the array list scheduler: {!Hypar_coarsegrain.Schedule.schedule}
   as it was before it kept predecessor arrays, per-node counts of
   unscheduled predecessors, a compacted pending array and cycle-stamped
   chain tails — list scans of every node's predecessors on every pass,
   and a fresh chain-tail array each cycle — kept here to cross-check
   placements and makespans under every priority and health. *)

module Ir = Hypar_ir
module Cgc = Hypar_coarsegrain.Cgc
module Schedule = Hypar_coarsegrain.Schedule

type kind = Free | Mem | Node

let kind_of instr =
  match instr with
  | Ir.Instr.Mov _ -> Free
  | Ir.Instr.Load _ | Ir.Instr.Store _ -> Mem
  | Ir.Instr.Bin _ | Ir.Instr.Un _ | Ir.Instr.Mul _ | Ir.Instr.Select _ -> Node
  | Ir.Instr.Div _ | Ir.Instr.Rem _ ->
    raise (Schedule.Unsupported "CGC nodes cannot execute division/remainder")

let is_mul = function Ir.Instr.Mul _ -> true | _ -> false

(* Priority: by default most critical first (smallest ALAP), then most
   successors, then program order.  `Asap and `Program are the ablation
   baselines. *)
let priority_order ?(priority = `Alap) dfg =
  let ids = List.init (Ir.Dfg.node_count dfg) Fun.id in
  match priority with
  | `Program -> ids
  | (`Alap | `Asap) as p ->
    let level = match p with `Alap -> Ir.Dfg.alap dfg | `Asap -> Ir.Dfg.asap dfg in
    List.sort
      (fun a b ->
        match compare level.(a) level.(b) with
        | 0 -> (
          match
            compare
              (List.length (Ir.Dfg.succs dfg b))
              (List.length (Ir.Dfg.succs dfg a))
          with
          | 0 -> compare a b
          | c -> c)
        | c -> c)
      ids

(* Per-cycle resources: [Cgc.chains cgc] columns, each with [rows] node
   slots.  Independent operations may share a column (each node of a CGC
   is a full compute unit); a *same-cycle dependent* operation must sit in
   its producer's column, below it — the steering-logic chaining — and
   only onto the current tail of that dependency chain. *)
let schedule ?priority ?health cgc dfg =
  let n = Ir.Dfg.node_count dfg in
  let kinds =
    Array.init n (fun i -> kind_of (Ir.Dfg.node dfg i).Ir.Dfg.instr)
  in
  let placements = Array.make n { Schedule.cycle = -1; chain = -1; depth = 0 } in
  let finish = Array.make n (-1) in
  let scheduled = Array.make n false in
  let order = priority_order ?priority dfg in
  let remaining = ref n in
  let columns = Cgc.chains cgc in
  (match health with
  | Some (h : Cgc.health) when Array.length h.Cgc.col_rows <> columns ->
    invalid_arg "Schedule.schedule: health does not match the CGC geometry"
  | Some h when not (Schedule.supported_on ~health:h cgc dfg) ->
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
  let bound = (10 * n) + 100 + (2 * n * columns) in
  let t = ref 1 in
  while !remaining > 0 do
    if !t > bound then
      invalid_arg "Schedule.schedule: no progress (internal error)";
    (* per-cycle resource state *)
    let column_used = Array.make columns 0 in
    let chain_tail = Array.make n false in
    (* chain tails this cycle, by node id *)
    let mem_used = ref 0 in
    let preds_scheduled v =
      List.for_all (fun p -> scheduled.(p)) (Ir.Dfg.preds dfg v)
    in
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
      placements.(v) <-
        { Schedule.cycle = !t; chain = column; depth = column_used.(column) };
      finish.(v) <- !t;
      chain_tail.(v) <- true
    in
    let try_schedule v =
      match kinds.(v) with
      | Free ->
        let f =
          List.fold_left (fun acc p -> max acc finish.(p)) 0 (Ir.Dfg.preds dfg v)
        in
        placements.(v) <- { Schedule.cycle = f; chain = -1; depth = 0 };
        finish.(v) <- f;
        true
      | Mem ->
        let ready =
          List.for_all (fun p -> finish.(p) < !t) (Ir.Dfg.preds dfg v)
        in
        if ready && !mem_used < cgc.Cgc.mem_ports then begin
          incr mem_used;
          placements.(v) <- { Schedule.cycle = !t; chain = -1; depth = 0 };
          finish.(v) <- !t;
          true
        end
        else false
      | Node -> (
        let same_cycle_node_preds =
          List.filter
            (fun p -> finish.(p) = !t && kinds.(p) = Node)
            (Ir.Dfg.preds dfg v)
        in
        let others_ready =
          List.for_all
            (fun p -> finish.(p) < !t || (finish.(p) = !t && kinds.(p) = Node))
            (Ir.Dfg.preds dfg v)
        in
        if not others_ready then false
        else
          match same_cycle_node_preds with
          | [] -> (
            match pick_column v with
            | -1 -> false
            | c ->
              place v c;
              true)
          | [ p ] ->
            let c = placements.(p).Schedule.chain in
            if
              c >= 0 && chain_tail.(p)
              && column_used.(c) < cap.(c)
              && slot_ok v c (column_used.(c) + 1)
            then begin
              chain_tail.(p) <- false;
              place v c;
              true
            end
            else false
          | _ :: _ :: _ -> false (* cannot chain from two producers *))
    in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun v ->
          if (not scheduled.(v)) && preds_scheduled v && try_schedule v then begin
            scheduled.(v) <- true;
            decr remaining;
            progress := true
          end)
        order
    done;
    incr t
  done;
  let makespan = Array.fold_left max 0 finish in
  { Schedule.placements; makespan }

