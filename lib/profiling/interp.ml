module Ir = Hypar_ir

exception Runtime_error of string
exception Fuel_exhausted of { steps : int }

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let () =
  Printexc.register_printer (function
    | Fuel_exhausted { steps } ->
      Some (Printf.sprintf "Fuel_exhausted(%d steps)" steps)
    | _ -> None)

type result = {
  exec_freq : int array;
  mem_reads : int array;
  mem_writes : int array;
  edge_freq : ((int * int) * int) list;
  instrs_executed : int;
  blocks_executed : int;
  return_value : int option;
  arrays : (string * int array) list;
}

type machine = {
  regs : int array;  (* indexed by vid; [defined] tracks initialisation *)
  defined : Bytes.t;
  arrays : (string, int array) Hashtbl.t;
  const_arrays : (string, unit) Hashtbl.t;
}

let max_vid cdfg =
  let m = ref 0 in
  Array.iter
    (fun (bi : Ir.Cdfg.block_info) ->
      List.iter
        (fun instr ->
          (match Ir.Instr.def instr with
          | Some v -> m := max !m v.Ir.Instr.vid
          | None -> ());
          List.iter
            (fun (v : Ir.Instr.var) -> m := max !m v.Ir.Instr.vid)
            (Ir.Instr.used_vars instr))
        bi.Ir.Cdfg.block.Ir.Block.instrs;
      List.iter
        (fun (v : Ir.Instr.var) -> m := max !m v.Ir.Instr.vid)
        (Ir.Block.terminator_uses bi.Ir.Cdfg.block))
    (Ir.Cdfg.infos cdfg);
  !m

let read_reg mach (v : Ir.Instr.var) =
  if Bytes.get mach.defined v.vid = '\001' then mach.regs.(v.vid)
  else error "read of undefined variable %s#%d" v.vname v.vid

let write_reg mach (v : Ir.Instr.var) value =
  mach.regs.(v.vid) <- value;
  Bytes.set mach.defined v.vid '\001'

let operand mach = function
  | Ir.Instr.Imm n -> n
  | Ir.Instr.Var v -> read_reg mach v

let array_ref mach arr =
  match Hashtbl.find_opt mach.arrays arr with
  | Some a -> a
  | None -> error "access to undeclared array %S" arr

let check_bounds arr a i =
  if i < 0 || i >= Array.length a then
    error "array %S index %d out of bounds [0, %d)" arr i (Array.length a)

let exec_instr mach instr =
  match instr with
  | Ir.Instr.Bin { dst; op; a; b } ->
    write_reg mach dst (Ir.Types.eval_alu_op op (operand mach a) (operand mach b))
  | Ir.Instr.Mul { dst; a; b } ->
    write_reg mach dst (operand mach a * operand mach b)
  | Ir.Instr.Div { dst; a; b } ->
    let d = operand mach b in
    if d = 0 then error "division by zero";
    write_reg mach dst (operand mach a / d)
  | Ir.Instr.Rem { dst; a; b } ->
    let d = operand mach b in
    if d = 0 then error "remainder by zero";
    write_reg mach dst (operand mach a mod d)
  | Ir.Instr.Un { dst; op; a } ->
    write_reg mach dst (Ir.Types.eval_un_op op (operand mach a))
  | Ir.Instr.Mov { dst; src } -> write_reg mach dst (operand mach src)
  | Ir.Instr.Select { dst; cond; if_true; if_false } ->
    let v =
      if operand mach cond <> 0 then operand mach if_true
      else operand mach if_false
    in
    write_reg mach dst v
  | Ir.Instr.Load { dst; arr; index } ->
    let a = array_ref mach arr in
    let i = operand mach index in
    check_bounds arr a i;
    write_reg mach dst a.(i)
  | Ir.Instr.Store { arr; index; value } ->
    if Hashtbl.mem mach.const_arrays arr then
      error "store to const array %S" arr;
    let a = array_ref mach arr in
    let i = operand mach index in
    check_bounds arr a i;
    a.(i) <- operand mach value

let run ?(fuel = 400_000_000) ?max_steps ?poll ?(inputs = []) cdfg =
  Hypar_obs.Span.with_ ~cat:"profile" "profile.run" @@ fun () ->
  let cfg = Ir.Cdfg.cfg cdfg in
  let n = Ir.Cdfg.block_count cdfg in
  let mach =
    {
      regs = Array.make (max_vid cdfg + 1) 0;
      defined = Bytes.make (max_vid cdfg + 1) '\000';
      arrays = Hashtbl.create 16;
      const_arrays = Hashtbl.create 16;
    }
  in
  List.iter
    (fun (d : Ir.Cdfg.array_decl) ->
      let a =
        match d.init with
        | Some init ->
          let a = Array.make d.size 0 in
          Array.blit init 0 a 0 (min (Array.length init) d.size);
          a
        | None -> Array.make d.size 0
      in
      Hashtbl.replace mach.arrays d.aname a;
      if d.is_const then Hashtbl.replace mach.const_arrays d.aname ())
    (Ir.Cdfg.arrays cdfg);
  List.iter
    (fun (name, values) ->
      match Hashtbl.find_opt mach.arrays name with
      | None -> error "input for undeclared array %S" name
      | Some a ->
        if Hashtbl.mem mach.const_arrays name then
          error "input for const array %S" name;
        Array.blit values 0 a 0 (min (Array.length values) (Array.length a)))
    inputs;
  let exec_freq = Array.make n 0 in
  let mem_reads = Array.make n 0 in
  let mem_writes = Array.make n 0 in
  let edges : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let count_edge src dst =
    let prev = match Hashtbl.find_opt edges (src, dst) with Some c -> c | None -> 0 in
    Hashtbl.replace edges (src, dst) (prev + 1)
  in
  let instrs_executed = ref 0 in
  let blocks_executed = ref 0 in
  let budget = ref fuel in
  let steps = ref 0 in
  (* [fuel] preserves the legacy untyped diagnostic; [max_steps] is the
     typed per-evaluation budget the hardened explore driver threads in *)
  let tick () =
    (match max_steps with
    | Some limit when !steps >= limit -> raise (Fuel_exhausted { steps = !steps })
    | Some _ | None -> ());
    (* cooperative cancellation: a long-running profile stays responsive
       to wall-clock deadlines without paying a syscall per step *)
    (match poll with
    | Some check when !steps land 1023 = 0 -> check ()
    | Some _ | None -> ());
    if !budget <= 0 then error "fuel exhausted (infinite loop?)";
    decr budget;
    incr steps
  in
  let rec exec_block i =
    tick ();
    exec_freq.(i) <- exec_freq.(i) + 1;
    incr blocks_executed;
    let b = Ir.Cfg.block cfg i in
    List.iter
      (fun instr ->
        tick ();
        incr instrs_executed;
        if Ir.Instr.is_load instr then mem_reads.(i) <- mem_reads.(i) + 1;
        if Ir.Instr.is_store instr then mem_writes.(i) <- mem_writes.(i) + 1;
        exec_instr mach instr)
      b.Ir.Block.instrs;
    match b.Ir.Block.term with
    | Ir.Block.Jump l ->
      let j = Ir.Cfg.id_of_label cfg l in
      count_edge i j;
      exec_block j
    | Ir.Block.Branch { cond; if_true; if_false } ->
      let target = if operand mach cond <> 0 then if_true else if_false in
      let j = Ir.Cfg.id_of_label cfg target in
      count_edge i j;
      exec_block j
    | Ir.Block.Return op -> Option.map (operand mach) op
  in
  let return_value = exec_block (Ir.Cfg.entry cfg) in
  let arrays =
    List.map
      (fun (d : Ir.Cdfg.array_decl) -> (d.aname, Hashtbl.find mach.arrays d.aname))
      (Ir.Cdfg.arrays cdfg)
  in
  let edge_freq =
    List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) edges [])
  in
  if Hypar_obs.Sink.enabled () then begin
    Hypar_obs.Counter.incr ~by:!instrs_executed "profile.instrs_executed";
    Hypar_obs.Counter.incr ~by:!blocks_executed "profile.blocks_executed"
  end;
  {
    exec_freq;
    mem_reads;
    mem_writes;
    edge_freq;
    instrs_executed = !instrs_executed;
    blocks_executed = !blocks_executed;
    return_value;
    arrays;
  }

let array_exn (r : result) name = List.assoc name r.arrays
