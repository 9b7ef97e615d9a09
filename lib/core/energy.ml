module Ir = Hypar_ir
module Analysis = Hypar_analysis
module Finegrain = Hypar_finegrain

type class_energy = { alu : int; mul : int; div : int; mem : int; move : int }

type model = {
  fpga_op : class_energy;
  cgc_op : class_energy;
  reconfig : int;
  comm_word : int;
}

let default =
  {
    fpga_op = { alu = 10; mul = 30; div = 80; mem = 12; move = 3 };
    cgc_op = { alu = 2; mul = 6; div = 80; mem = 12; move = 1 };
    reconfig = 500;
    comm_word = 8;
  }

let of_class (ce : class_energy) = function
  | Ir.Types.Class_alu -> ce.alu
  | Ir.Types.Class_mul -> ce.mul
  | Ir.Types.Class_div -> ce.div
  | Ir.Types.Class_mem -> ce.mem
  | Ir.Types.Class_move -> ce.move

let ops_energy ce dfg =
  let acc = ref 0 in
  for i = 0 to Ir.Dfg.node_count dfg - 1 do
    acc := !acc + of_class ce (Ir.Instr.op_class (Ir.Dfg.node dfg i).Ir.Dfg.instr)
  done;
  !acc

let fpga_energy model dfg ~partitions =
  ops_energy model.fpga_op dfg + (partitions * model.reconfig)

let fine_partitions (platform : Platform.t) cdfg i =
  (Finegrain.Fine_map.price platform.Platform.fpga cdfg i)
    .Finegrain.Fine_map.partition_count

let block_energy_fpga model platform cdfg i =
  fpga_energy model (Ir.Cdfg.dfg cdfg i)
    ~partitions:(fine_partitions platform cdfg i)

let block_energy_cgc model cdfg i =
  ops_energy model.cgc_op (Ir.Cdfg.dfg cdfg i)

type table = { on_fpga : int array; on_cgc : int array }

let table model cdfg ~freq ~partitions ~words =
  let n = Ir.Cdfg.block_count cdfg in
  let on_fpga = Array.make n 0 and on_cgc = Array.make n 0 in
  for i = 0 to n - 1 do
    let f = freq i in
    if f <> 0 then begin
      let dfg = Ir.Cdfg.dfg cdfg i in
      on_fpga.(i) <- f * fpga_energy model dfg ~partitions:(partitions i);
      on_cgc.(i) <-
        f * (block_energy_cgc model cdfg i + (words i * model.comm_word))
    end
  done;
  { on_fpga; on_cgc }

let total t ~moved =
  let is_moved = Array.make (Array.length t.on_fpga) false in
  List.iter (fun i -> is_moved.(i) <- true) moved;
  let acc = ref 0 in
  Array.iteri
    (fun i m -> acc := !acc + if m then t.on_cgc.(i) else t.on_fpga.(i))
    is_moved;
  !acc

let app_energy model platform cdfg ~freq ~moved =
  let live = Ir.Live.analyse (Ir.Cdfg.cfg cdfg) in
  total
    (table model cdfg ~freq ~partitions:(fine_partitions platform cdfg)
       ~words:(Comm.block_words live))
    ~moved

type step = { moved_block : int; energy : int; meets_budget : bool }

type t = {
  model : model;
  energy_budget : int;
  initial_energy : int;
  steps : step list;
  final_energy : int;
  moved : int list;
  feasible : bool;
}

let partition model (platform : Platform.t) ~energy_budget cdfg profile =
  let app = Engine.app_layer cdfg profile in
  let fine = Engine.fine_layer app platform.Platform.fpga in
  let energies =
    table model cdfg ~freq:(Array.get app.Engine.freq)
      ~partitions:(Array.get fine.Engine.partition_count)
      ~words:(Engine.block_words app)
  in
  let initial_energy = total energies ~moved:[] in
  let rec go kernels steps moved current =
    match kernels with
    | (k : Analysis.Kernel.entry) :: rest when current > energy_budget ->
      if not (Hypar_coarsegrain.Schedule.supported (Ir.Cdfg.dfg cdfg k.block_id))
      then go rest steps moved current
      else begin
        let candidate = k.block_id :: moved in
        let e = total energies ~moved:candidate in
        if e >= current then
          (* moving this kernel does not help (communication dominates) *)
          go rest steps moved current
        else
          let step =
            { moved_block = k.block_id; energy = e; meets_budget = e <= energy_budget }
          in
          go rest (step :: steps) candidate e
      end
    | _ -> (steps, moved, current)
  in
  let steps, moved, final_energy =
    go (Analysis.Kernel.analyse cdfg profile).Analysis.Kernel.kernels
      [] [] initial_energy
  in
  {
    model;
    energy_budget;
    initial_energy;
    steps = List.rev steps;
    final_energy;
    moved = List.rev moved;
    feasible = final_energy <= energy_budget;
  }

let reduction_percent t =
  if t.initial_energy = 0 then 0.0
  else
    100.0
    *. float_of_int (t.initial_energy - t.final_energy)
    /. float_of_int t.initial_energy

let pp ppf t =
  Format.fprintf ppf
    "@[<v>energy partitioning (budget %d):@,  initial=%d final=%d (%.1f%% saved) moved=[%s] %s@]"
    t.energy_budget t.initial_energy t.final_energy (reduction_percent t)
    (String.concat ";" (List.map string_of_int t.moved))
    (if t.feasible then "met" else "INFEASIBLE")
