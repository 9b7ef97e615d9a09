(* Reference oracle for the bitset liveness: the register-keyed map
   lattice and the list-building block views as they were before
   {!Hypar_ir.Dataflow.Liveness} became gen/kill bitsets, kept here to
   cross-check the summaries, the vid universe and the counts. *)

module Ir = Hypar_ir
module Instr = Ir.Instr
module Block = Ir.Block
module D = Ir.Dataflow
module Var_map = D.Int_map

(* register id -> the variable (kept for name/width reporting) *)
module Liveness = struct
  type t = Instr.var Var_map.t

  let name = "liveness"
  let direction = D.Backward
  let init = Var_map.empty
  let boundary = Var_map.empty
  let join = Var_map.union (fun _ v _ -> Some v)
  let equal = Var_map.equal (fun _ _ -> true)

  let add_operand op live =
    match op with
    | Instr.Var v -> Var_map.add v.Instr.vid v live
    | Instr.Imm _ -> live

  (* live-before = uses U (live-after \ def) *)
  let transfer _ instr live =
    let live =
      match Instr.def instr with
      | Some d -> Var_map.remove d.Instr.vid live
      | None -> live
    in
    List.fold_left
      (fun acc (v : Instr.var) -> Var_map.add v.Instr.vid v acc)
      live (Instr.used_vars instr)

  let transfer_term _ term live =
    match term with
    | Block.Jump _ | Block.Return None -> live
    | Block.Branch { cond; _ } -> add_operand cond live
    | Block.Return (Some op) -> add_operand op live

  let transfer_block = None
  let edge = None
  let widen = None
end

type t = {
  cfg : Ir.Cfg.t;
  live_in : Instr.var Var_map.t array;
  live_out : Instr.var Var_map.t array;
}

let to_sorted_list set = List.map snd (Var_map.bindings set)

let analyse cfg =
  let sol = D.solve_raw (module Liveness) cfg in
  { cfg; live_in = sol.D.at_entry; live_out = sol.D.at_exit }

let live_in t i = to_sorted_list t.live_in.(i)
let live_out t i = to_sorted_list t.live_out.(i)

let defs_live_out t i =
  let b = Ir.Cfg.block t.cfg i in
  let defs = ref Var_map.empty in
  List.iter
    (fun instr ->
      match Instr.def instr with
      | Some v -> defs := Var_map.add v.vid v !defs
      | None -> ())
    b.Block.instrs;
  to_sorted_list
    (Var_map.filter (fun vid _ -> Var_map.mem vid t.live_out.(i)) !defs)

(* upward-exposed reads of the block, the terminator's included *)
let use_set cfg i =
  let b = Ir.Cfg.block cfg i in
  let defs = ref Var_map.empty in
  let uses = ref Var_map.empty in
  let see_use (v : Instr.var) =
    if not (Var_map.mem v.vid !defs) then uses := Var_map.add v.vid v !uses
  in
  List.iter
    (fun instr ->
      List.iter see_use (Instr.used_vars instr);
      match Instr.def instr with
      | Some v -> defs := Var_map.add v.vid v !defs
      | None -> ())
    b.Block.instrs;
  List.iter see_use (Block.terminator_uses b);
  to_sorted_list !uses
