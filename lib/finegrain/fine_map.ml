module Ir = Hypar_ir

type block_mapping = {
  block_id : int;
  partition_count : int;
  compute_cycles : int;
  reconfig_cycles : int;
  cycles_per_iteration : int;
  partitions : Temporal.t;
}

(* Cycles of one DFG mapping: group nodes by (partition, ASAP level);
   each group costs the max delay among its members. *)
let compute_cycles_of fpga dfg (tp : Temporal.t) =
  let asap = Ir.Dfg.asap dfg in
  let group_cost : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (nd : Ir.Dfg.node) ->
      let key = (tp.Temporal.assignment.(nd.id), asap.(nd.id)) in
      let d = Fpga.op_delay fpga nd.instr in
      let prev = match Hashtbl.find_opt group_cost key with Some c -> c | None -> 0 in
      if d > prev then Hashtbl.replace group_cost key d)
    (Ir.Dfg.nodes dfg);
  Hashtbl.fold (fun _ cost acc -> acc + cost) group_cost 0

let map_dfg_id fpga ~block_id dfg =
  Hypar_obs.Span.with_ ~cat:"fine" "fine.map_block"
    ~args:[ ("block", Hypar_obs.Event.Int block_id) ]
  @@ fun () ->
  let tp = Temporal.partition ~area:fpga.Fpga.area ~size:(Fpga.op_area fpga) dfg in
  let parts = Temporal.count tp in
  let compute = compute_cycles_of fpga dfg tp in
  let reconfig =
    List.fold_left
      (fun acc (p : Temporal.partition) ->
        acc + Fpga.partition_reconfig_cycles fpga ~partition_area:p.area_used)
      0 tp.Temporal.partitions
  in
  {
    block_id;
    partition_count = parts;
    compute_cycles = compute;
    reconfig_cycles = reconfig;
    cycles_per_iteration = compute + reconfig;
    partitions = tp;
  }

let map_dfg fpga dfg = map_dfg_id fpga ~block_id:(-1) dfg

let map_block fpga cdfg i =
  map_dfg_id fpga ~block_id:i (Ir.Cdfg.dfg cdfg i)

let map_cdfg fpga cdfg =
  Array.of_list (List.map (map_block fpga cdfg) (Ir.Cdfg.block_ids cdfg))

let app_cycles fpga cdfg ~freq ~on_fpga =
  List.fold_left
    (fun acc i ->
      if on_fpga i && freq i > 0 then
        acc + ((map_block fpga cdfg i).cycles_per_iteration * freq i)
      else acc)
    0 (Ir.Cdfg.block_ids cdfg)

let pp_block_mapping ppf m =
  Format.fprintf ppf
    "BB%d: %d partition(s), compute=%d reconfig=%d cycles/iter=%d" m.block_id
    m.partition_count m.compute_cycles m.reconfig_cycles m.cycles_per_iteration
