module Ir = Hypar_ir

type t = {
  ii : int;
  res_mii : int;
  rec_mii : int;
  latency : int;
  recurrences : Ir.Instr.var list;
}

let ceil_div a b = (a + b - 1) / b

let res_mii cgc dfg =
  let node_ops = ref 0 and mem_ops = ref 0 in
  List.iter
    (fun (nd : Ir.Dfg.node) ->
      match nd.instr with
      | Ir.Instr.Mov _ -> ()
      | Ir.Instr.Load _ | Ir.Instr.Store _ -> incr mem_ops
      | Ir.Instr.Bin _ | Ir.Instr.Un _ | Ir.Instr.Mul _ | Ir.Instr.Select _
      | Ir.Instr.Div _ | Ir.Instr.Rem _ ->
        incr node_ops)
    (Ir.Dfg.nodes dfg);
  max 1
    (max
       (ceil_div !node_ops (Cgc.node_slots cgc))
       (ceil_div !mem_ops cgc.Cgc.mem_ports))

(* Recurrence bound from the base schedule: the cycle span from the first
   use of a carried scalar to its redefinition cannot overlap with the
   next iteration's same span. *)
let rec_mii dfg (sched : Schedule.t) carried =
  let span (v : Ir.Instr.var) =
    let first_use = ref max_int in
    let def_cycle = ref 0 in
    List.iter
      (fun (nd : Ir.Dfg.node) ->
        let cycle = sched.Schedule.placements.(nd.id).Schedule.cycle in
        if
          List.exists
            (fun (u : Ir.Instr.var) -> Ir.Instr.var_equal u v)
            (Ir.Instr.used_vars nd.instr)
        then first_use := min !first_use cycle;
        (match Ir.Instr.def nd.instr with
        | Some d when Ir.Instr.var_equal d v ->
          def_cycle := max !def_cycle cycle
        | Some _ | None -> ()))
      (Ir.Dfg.nodes dfg);
    if !first_use = max_int then max 1 !def_cycle
    else max 1 (!def_cycle - !first_use + 1)
  in
  List.fold_left (fun acc v -> max acc (span v)) 1 carried

let analyse cgc dfg ~carried =
  if not (Schedule.supported dfg) then None
  else begin
    let sched = Schedule.schedule cgc dfg in
    let latency = max 1 sched.Schedule.makespan in
    (* only scalars actually redefined by this block recur *)
    let defined (v : Ir.Instr.var) =
      List.exists
        (fun (nd : Ir.Dfg.node) ->
          match Ir.Instr.def nd.instr with
          | Some d -> Ir.Instr.var_equal d v
          | None -> false)
        (Ir.Dfg.nodes dfg)
    in
    let recurrences = List.filter defined carried in
    let res = res_mii cgc dfg in
    let rc = rec_mii dfg sched recurrences in
    let ii = min latency (max res rc) in
    Some { ii; res_mii = res; rec_mii = rc; latency; recurrences }
  end
