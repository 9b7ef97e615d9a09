module Ir = Hypar_ir

type block_mapping = {
  block_id : int;
  latency : int;
  schedule : Schedule.t;
  binding : Binding.t;
}

let map_dfg_id ?health cgc ~block_id dfg =
  if not (Schedule.supported_on ?health cgc dfg) then None
  else begin
    let schedule = Schedule.schedule ?health cgc dfg in
    let binding = Binding.bind cgc dfg schedule in
    Some
      {
        block_id;
        latency = max 1 schedule.Schedule.makespan;
        schedule;
        binding;
      }
  end

let latency ?health cgc dfg =
  if not (Schedule.supported_on ?health cgc dfg) then None
  else Some (max 1 (Schedule.schedule ?health cgc dfg).Schedule.makespan)

let map_dfg ?health cgc dfg = map_dfg_id ?health cgc ~block_id:(-1) dfg

let map_block ?health cgc cdfg i =
  map_dfg_id ?health cgc ~block_id:i (Ir.Cdfg.dfg cdfg i)

let pp_block_mapping ppf m =
  Format.fprintf ppf "BB%d: latency=%d CGC cycles, max_live=%d" m.block_id
    m.latency m.binding.Binding.max_live
