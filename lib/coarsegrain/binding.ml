module Ir = Hypar_ir

type slot = { node : int; cgc : int; row : int; col : int; cycle : int }

type t = {
  slots : slot list;
  mem_ports : (int * int) list;
  max_live : int;
  fits_register_bank : bool;
}

let bind (cgc : Cgc.t) dfg (sched : Schedule.t) =
  let slots = ref [] in
  let mem_ports = ref [] in
  let port_in_cycle : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun v (p : Schedule.placement) ->
      let instr = (Ir.Dfg.node dfg v).Ir.Dfg.instr in
      if p.chain >= 0 then
        (* node op: chain -> (CGC, column), chain position -> row *)
        slots :=
          {
            node = v;
            cgc = p.chain / cgc.Cgc.cols;
            col = p.chain mod cgc.Cgc.cols;
            row = p.depth - 1;
            cycle = p.cycle;
          }
          :: !slots
      else if Ir.Instr.op_class instr = Ir.Types.Class_mem then begin
        let used =
          match Hashtbl.find_opt port_in_cycle p.cycle with
          | Some u -> u
          | None -> 0
        in
        Hashtbl.replace port_in_cycle p.cycle (used + 1);
        mem_ports := (v, used) :: !mem_ports
      end
      (* pure moves are routed by the steering interconnect: no resource *))
    sched.Schedule.placements;
  (* register-bank pressure: values crossing a cycle boundary *)
  let makespan = sched.Schedule.makespan in
  let live = Array.make (makespan + 2) 0 in
  Array.iteri
    (fun v (p : Schedule.placement) ->
      let consumers = Ir.Dfg.succs dfg v in
      let last_use =
        List.fold_left
          (fun acc s -> max acc sched.Schedule.placements.(s).cycle)
          p.cycle consumers
      in
      if last_use > p.cycle then
        for c = p.cycle + 1 to min last_use (makespan + 1) do
          live.(c) <- live.(c) + 1
        done)
    sched.Schedule.placements;
  let max_live = Array.fold_left max 0 live in
  {
    slots = List.rev !slots;
    mem_ports = List.rev !mem_ports;
    max_live;
    fits_register_bank = max_live <= cgc.Cgc.register_bank;
  }

let is_valid ?health (cgc : Cgc.t) t =
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  List.iter
    (fun s ->
      if s.cgc < 0 || s.cgc >= cgc.Cgc.cgcs then ok := false;
      if s.row < 0 || s.row >= cgc.Cgc.rows then ok := false;
      if s.col < 0 || s.col >= cgc.Cgc.cols then ok := false;
      (match health with
      | None -> ()
      | Some (h : Cgc.health) ->
        (* a slot on dead hardware (beyond its column's usable depth) is
           a binding bug under degradation *)
        let chain = Cgc.chain_of cgc ~cgc:s.cgc ~col:s.col in
        if
          chain >= Array.length h.Cgc.col_rows
          || s.row + 1 > h.Cgc.col_rows.(chain)
        then ok := false);
      let key = (s.cycle, s.cgc, s.row, s.col) in
      if Hashtbl.mem seen key then ok := false;
      Hashtbl.replace seen key ())
    t.slots;
  List.iter
    (fun (_node, port) -> if port < 0 || port >= cgc.Cgc.mem_ports then ok := false)
    t.mem_ports;
  !ok

let render_gantt (cgc : Cgc.t) dfg (sched : Schedule.t) t =
  let makespan = max 1 sched.Schedule.makespan in
  let cell_width = 7 in
  let buf = Buffer.create 1024 in
  let mnemonic v = Ir.Instr.mnemonic (Ir.Dfg.node dfg v).Ir.Dfg.instr in
  let pad s =
    let s = if String.length s > cell_width then String.sub s 0 cell_width else s in
    s ^ String.make (cell_width - String.length s) ' '
  in
  Buffer.add_string buf (pad "cycle:");
  for c = 1 to makespan do
    Buffer.add_string buf (pad (string_of_int c))
  done;
  Buffer.add_char buf '\n';
  let row label cells =
    Buffer.add_string buf (pad label);
    Array.iter (fun c -> Buffer.add_string buf (pad c)) cells;
    Buffer.add_char buf '\n'
  in
  for k = 0 to cgc.Cgc.cgcs - 1 do
    for r = 0 to cgc.Cgc.rows - 1 do
      for col = 0 to cgc.Cgc.cols - 1 do
        let cells = Array.make makespan "." in
        List.iter
          (fun s ->
            if s.cgc = k && s.row = r && s.col = col then
              cells.(s.cycle - 1) <- mnemonic s.node)
          t.slots;
        row (Printf.sprintf "c%d[%d,%d]" k r col) cells
      done
    done
  done;
  (* memory ports *)
  let placements = sched.Schedule.placements in
  for port = 0 to cgc.Cgc.mem_ports - 1 do
    let cells = Array.make makespan "." in
    List.iter
      (fun (node, p) ->
        if p = port then begin
          let cycle = placements.(node).Schedule.cycle in
          if cycle >= 1 && cycle <= makespan then cells.(cycle - 1) <- mnemonic node
        end)
      t.mem_ports;
    row (Printf.sprintf "mem%d" port) cells
  done;
  Buffer.contents buf
