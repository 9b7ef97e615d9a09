module Ir = Hypar_ir

type operand =
  | Imm of int
  | Reg of int  (* defined on every path here: read without the check *)
  | Checked of int * string  (* may be undefined: vid + name, for the error *)

type instr =
  | Bin of { dst : int; op : Ir.Types.alu_op; a : operand; b : operand }
  | Mul of { dst : int; a : operand; b : operand }
  | Div of { dst : int; a : operand; b : operand }
  | Rem of { dst : int; a : operand; b : operand }
  | Un of { dst : int; op : Ir.Types.un_op; a : operand }
  | Mov of { dst : int; src : operand }
  | Select of { dst : int; cond : operand; if_true : operand; if_false : operand }
  | Load of { dst : int; arr : int; aname : string; index : operand }
  | Store of { arr : int; aname : string; const : bool; index : operand; value : operand }

type terminator =
  | Jump of { target : int; edge : int }
  | Branch of {
      cond : operand;
      if_true : int;
      edge_true : int;
      if_false : int;
      edge_false : int;
    }
  | Return of operand option

type block = { body : instr array; static_loads : int; static_stores : int; term : terminator }

type t = {
  entry : int;
  blocks : block array;
  nregs : int;
  tracked : bool array;  (* registers some [Checked] read inspects *)
  decls : Ir.Cdfg.array_decl array;  (* handle = index, declaration order *)
  handle_of : (string, int) Hashtbl.t;  (* name -> handle; later decls win *)
  const_names : (string, unit) Hashtbl.t;
  edge_keys : (int * int) array;  (* edge slot -> (src, dst) block ids *)
}

let compile cdfg =
  let cfg = Ir.Cdfg.cfg cdfg in
  let n = Ir.Cfg.block_count cfg in
  (* Register-file size: highest vid over every def, use and terminator
     read (the same scan as the tree-walker's). *)
  let max_vid = ref 0 in
  let note (v : Ir.Instr.var) = if v.vid > !max_vid then max_vid := v.vid in
  for i = 0 to n - 1 do
    let b = Ir.Cfg.block cfg i in
    List.iter
      (fun ins ->
        (match Ir.Instr.def ins with Some v -> note v | None -> ());
        List.iter note (Ir.Instr.used_vars ins))
      b.Ir.Block.instrs;
    List.iter note (Ir.Block.terminator_uses b)
  done;
  let decls = Array.of_list (Ir.Cdfg.arrays cdfg) in
  let handle_of = Hashtbl.create 16 in
  Array.iteri
    (fun h (d : Ir.Cdfg.array_decl) -> Hashtbl.replace handle_of d.aname h)
    decls;
  let const_names = Hashtbl.create 16 in
  Array.iter
    (fun (d : Ir.Cdfg.array_decl) ->
      if d.is_const then Hashtbl.replace const_names d.aname ())
    decls;
  (* Accesses to undeclared arrays stay a *runtime* error (handle -1), so
     a program that never executes the faulty instruction still runs. *)
  let handle name =
    match Hashtbl.find_opt handle_of name with Some h -> h | None -> -1
  in
  (* Definite assignment decides which reads keep the undefined-read
     check: a register in the fact holding before the read was written on
     every path from the entry, so the check could never fire.  Blocks
     the solver never reaches keep [All] and never run. *)
  let module A = Ir.Dataflow.Assigned in
  let assigned = Ir.Dataflow.solve_raw (module A) cfg in
  let tracked = Array.make (!max_vid + 1) false in
  let fact = ref A.init in
  let cop = function
    | Ir.Instr.Imm k -> Imm k
    | Ir.Instr.Var v when A.mem v.vid !fact -> Reg v.vid
    | Ir.Instr.Var v ->
      tracked.(v.vid) <- true;
      Checked (v.vid, v.vname)
  in
  (* [cop] reads [fact], so every operand is converted before the
     instruction's own transfer moves it past the definition *)
  let cinstr = function
    | Ir.Instr.Bin { dst; op; a; b } ->
      Bin { dst = dst.vid; op; a = cop a; b = cop b }
    | Ir.Instr.Mul { dst; a; b } -> Mul { dst = dst.vid; a = cop a; b = cop b }
    | Ir.Instr.Div { dst; a; b } -> Div { dst = dst.vid; a = cop a; b = cop b }
    | Ir.Instr.Rem { dst; a; b } -> Rem { dst = dst.vid; a = cop a; b = cop b }
    | Ir.Instr.Un { dst; op; a } -> Un { dst = dst.vid; op; a = cop a }
    | Ir.Instr.Mov { dst; src } -> Mov { dst = dst.vid; src = cop src }
    | Ir.Instr.Select { dst; cond; if_true; if_false } ->
      Select
        {
          dst = dst.vid;
          cond = cop cond;
          if_true = cop if_true;
          if_false = cop if_false;
        }
    | Ir.Instr.Load { dst; arr; index } ->
      Load { dst = dst.vid; arr = handle arr; aname = arr; index = cop index }
    | Ir.Instr.Store { arr; index; value } ->
      Store
        {
          arr = handle arr;
          aname = arr;
          const = Hashtbl.mem const_names arr;
          index = cop index;
          value = cop value;
        }
  in
  let edge_tbl : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let edge_keys = ref [] in
  let nedges = ref 0 in
  let slot src dst =
    match Hashtbl.find_opt edge_tbl (src, dst) with
    | Some s -> s
    | None ->
      let s = !nedges in
      incr nedges;
      Hashtbl.add edge_tbl (src, dst) s;
      edge_keys := (src, dst) :: !edge_keys;
      s
  in
  let blocks =
    Array.init n (fun i ->
        let b = Ir.Cfg.block cfg i in
        fact := assigned.Ir.Dataflow.at_entry.(i);
        let body =
          Array.of_list
            (List.mapi
               (fun k ins ->
                 let c = cinstr ins in
                 fact := A.transfer { Ir.Dataflow.block = i; index = k } ins !fact;
                 c)
               b.Ir.Block.instrs)
        in
        let static_loads =
          List.length (List.filter Ir.Instr.is_load b.Ir.Block.instrs)
        in
        let static_stores =
          List.length (List.filter Ir.Instr.is_store b.Ir.Block.instrs)
        in
        let term =
          match b.Ir.Block.term with
          | Ir.Block.Jump l ->
            let j = Ir.Cfg.id_of_label cfg l in
            Jump { target = j; edge = slot i j }
          | Ir.Block.Branch { cond; if_true; if_false } ->
            let t = Ir.Cfg.id_of_label cfg if_true in
            let f = Ir.Cfg.id_of_label cfg if_false in
            Branch
              {
                cond = cop cond;
                if_true = t;
                edge_true = slot i t;
                if_false = f;
                edge_false = slot i f;
              }
          | Ir.Block.Return op -> Return (Option.map cop op)
        in
        { body; static_loads; static_stores; term })
  in
  {
    entry = Ir.Cfg.entry cfg;
    blocks;
    nregs = !max_vid + 1;
    tracked;
    decls;
    handle_of;
    const_names;
    edge_keys = Array.of_list (List.rev !edge_keys);
  }
