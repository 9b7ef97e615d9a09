module Ir = Hypar_ir
module Profiling = Hypar_profiling

type entry = {
  block_id : int;
  label : string;
  exec_freq : int;
  bb_weight : int;
  total_weight : int;
  loop_depth : int;
  is_kernel : bool;
}

type t = {
  weights : Weights.t;
  entries : entry array;
  kernels : entry list;
}

let analyse ?(weights = Weights.paper) cdfg (profile : Profiling.Profile.t) =
  let entries =
    Array.mapi
      (fun i (bi : Ir.Cdfg.block_info) ->
        let exec_freq = Profiling.Profile.freq profile i in
        let bb_weight = Weights.bb_weight weights (Ir.Cdfg.dfg cdfg i) in
        let total_weight = exec_freq * bb_weight in
        {
          block_id = i;
          label = bi.block.Ir.Block.label;
          exec_freq;
          bb_weight;
          total_weight;
          loop_depth = bi.loop_depth;
          is_kernel = bi.loop_depth > 0 && exec_freq > 0 && bb_weight > 0;
        })
      (Ir.Cdfg.infos cdfg)
  in
  let kernels =
    Array.to_list entries
    |> List.filter (fun e -> e.is_kernel)
    |> List.sort (fun a b ->
           match compare b.total_weight a.total_weight with
           | 0 -> compare a.block_id b.block_id
           | c -> c)
  in
  { weights; entries; kernels }

let top t n = List.filteri (fun i _ -> i < n) t.kernels
