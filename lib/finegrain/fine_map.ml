module Ir = Hypar_ir

type block_mapping = {
  block_id : int;
  partition_count : int;
  compute_cycles : int;
  reconfig_cycles : int;
  cycles_per_iteration : int;
  partitions : Temporal.t;
}

type price = { partition_count : int; cycles_per_iteration : int }

(* Both prices come from the one Figure-3 walk: a (partition, ASAP level)
   group costs the max delay among its members, a partition its
   reconfiguration under the device's model. *)
let map_dfg_id fpga ~block_id dfg =
  let tp, (cost : Temporal.cost) =
    Temporal.partition_priced ~delay:(Fpga.op_delay fpga)
      ~reconfig:(Fpga.partition_reconfig_cycles fpga)
      ~area:fpga.Fpga.area ~size:(Fpga.op_area fpga) dfg
  in
  {
    block_id;
    partition_count = cost.count;
    compute_cycles = cost.compute_cycles;
    reconfig_cycles = cost.reconfig_cycles;
    cycles_per_iteration = cost.compute_cycles + cost.reconfig_cycles;
    partitions = tp;
  }

let price fpga cdfg i =
  let (cost : Temporal.cost) =
    Temporal.price ~delay:(Fpga.op_delay fpga)
      ~reconfig:(Fpga.partition_reconfig_cycles fpga)
      ~area:fpga.Fpga.area ~size:(Fpga.op_area fpga) (Ir.Cdfg.dfg cdfg i)
  in
  {
    partition_count = cost.count;
    cycles_per_iteration = cost.compute_cycles + cost.reconfig_cycles;
  }

let map_dfg fpga dfg = map_dfg_id fpga ~block_id:(-1) dfg

let map_block fpga cdfg i =
  map_dfg_id fpga ~block_id:i (Ir.Cdfg.dfg cdfg i)

let map_cdfg fpga cdfg =
  Array.of_list (List.map (map_block fpga cdfg) (Ir.Cdfg.block_ids cdfg))

let pp_block_mapping ppf m =
  Format.fprintf ppf
    "BB%d: %d partition(s), compute=%d reconfig=%d cycles/iter=%d" m.block_id
    m.partition_count m.compute_cycles m.reconfig_cycles m.cycles_per_iteration
