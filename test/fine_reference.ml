(* Reference oracle for the one-walk Figure-3 pricing: the temporal
   partitioner and the fine-grain cycle accounting as they were before
   {!Hypar_finegrain.Temporal} priced partitions in one walk over
   {!Hypar_ir.Dfg.level_order} — a rescan of every node per level, a
   members/areas table per partition, and a table of (partition, level)
   group costs — kept here to cross-check the walk, its partition
   records and {!Hypar_finegrain.Fine_map}'s prices. *)

module Ir = Hypar_ir
module Temporal = Hypar_finegrain.Temporal
module Fpga = Hypar_finegrain.Fpga

(* node ids at one ASAP level, in program order, by a full scan *)
let nodes_at_level dfg level =
  let acc = ref [] in
  Array.iteri (fun i l -> if l = level then acc := i :: !acc) (Ir.Dfg.asap dfg);
  List.rev !acc

(* Direct transcription of Figure 3:
     i = 1; area_covered = 0;
     for level = 1 .. max_level:
       for each node u with level(u) = level:
         if area_covered + size(u) <= A then partition(u) = i; accumulate
         else i = i+1; partition(u) = i; area_covered = size(u) *)
let partition ~area ~size dfg : Temporal.t =
  if area <= 0 then invalid_arg "Temporal.partition: area must be positive";
  let n = Ir.Dfg.node_count dfg in
  let assignment = Array.make n 0 in
  let current = ref 1 in
  let area_covered = ref 0 in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let areas : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let assign node_id node_area part =
    assignment.(node_id) <- part;
    let prev = match Hashtbl.find_opt members part with Some l -> l | None -> [] in
    Hashtbl.replace members part (node_id :: prev);
    let a = match Hashtbl.find_opt areas part with Some a -> a | None -> 0 in
    Hashtbl.replace areas part (a + node_area)
  in
  for level = 1 to Ir.Dfg.max_level dfg do
    List.iter
      (fun u ->
        let current_area = size (Ir.Dfg.node dfg u).Ir.Dfg.instr in
        if !area_covered + current_area <= area then begin
          assign u current_area !current;
          area_covered := !area_covered + current_area
        end
        else begin
          incr current;
          assign u current_area !current;
          area_covered := current_area
        end)
      (nodes_at_level dfg level)
  done;
  (* the pseudocode can leave the first partition empty (an oversized
     first node immediately opens partition 2); empty ones are dropped *)
  let partitions =
    if n = 0 then []
    else
      List.filter_map
        (fun k ->
          let index = k + 1 in
          match Hashtbl.find_opt members index with
          | Some l ->
            Some
              {
                Temporal.index;
                node_ids = List.rev l;
                area_used =
                  (match Hashtbl.find_opt areas index with
                  | Some a -> a
                  | None -> 0);
              }
          | None -> None)
        (List.init !current Fun.id)
  in
  { Temporal.partitions; assignment }

(* cycles of one DFG mapping: group nodes by (partition, ASAP level);
   each group costs the max delay among its members *)
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

type price = {
  partitions : Temporal.t;
  partition_count : int;
  compute_cycles : int;
  reconfig_cycles : int;
  cycles_per_iteration : int;
}

(* a DFG's fine-grain mapping on [fpga], as [Fine_map.map_dfg] priced it *)
let map_dfg fpga dfg =
  let tp = partition ~area:fpga.Fpga.area ~size:(Fpga.op_area fpga) dfg in
  let compute = compute_cycles_of fpga dfg tp in
  let reconfig =
    List.fold_left
      (fun acc (p : Temporal.partition) ->
        acc + Fpga.partition_reconfig_cycles fpga ~partition_area:p.area_used)
      0 tp.Temporal.partitions
  in
  {
    partitions = tp;
    partition_count = List.length tp.Temporal.partitions;
    compute_cycles = compute;
    reconfig_cycles = reconfig;
    cycles_per_iteration = compute + reconfig;
  }
