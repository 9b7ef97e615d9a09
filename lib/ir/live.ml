type t = {
  cfg : Cfg.t;
  live_in : Dataflow.Liveness.live array;
  live_out : Dataflow.Liveness.live array;
  mutable vars : Instr.var array option;  (* by vid, for the list views *)
}

(* every register the CFG mentions, at its id *)
let vars_by_vid cfg =
  let seen = ref [] in
  Array.iter (Block.iter_vars (fun v -> seen := v :: !seen)) (Cfg.blocks cfg);
  let top = List.fold_left (fun m (v : Instr.var) -> max m v.vid) (-1) !seen in
  let vars = Array.make (top + 1) { Instr.vname = ""; vid = -1; vwidth = 0 } in
  List.iter (fun (v : Instr.var) -> vars.(v.vid) <- v) !seen;
  vars

(* a memo rather than a [Lazy.t]: explore's worker domains share one
   application layer, and forcing a [Lazy.t] from two domains at once
   raises; two domains racing here build the same table *)
let vars t =
  match t.vars with
  | Some vars -> vars
  | None ->
    let vars = vars_by_vid t.cfg in
    t.vars <- Some vars;
    vars

let to_list t set =
  let vars = vars t and acc = ref [] in
  Dataflow.Liveness.iter (fun vid -> acc := vars.(vid) :: !acc) set;
  List.rev !acc

(* use = upward-exposed reads; def = all variables written in the block. *)
let use_set cfg i =
  let module Var_map = Dataflow.Int_map in
  let b = Cfg.block cfg i in
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
  List.map snd (Var_map.bindings !uses)

(* The fixpoint itself lives in {!Dataflow}: liveness is the backward
   may-analysis [Dataflow.Liveness], and this module only repackages the
   solution into the block-level views the partitioning engine
   consumes. *)
let analyse cfg =
  let sol = Dataflow.Liveness.solve cfg in
  {
    cfg;
    live_in = sol.Dataflow.at_entry;
    live_out = sol.Dataflow.at_exit;
    vars = None;
  }

let live_in t i = to_list t t.live_in.(i)
let live_out t i = to_list t t.live_out.(i)
let live_in_count t i = Dataflow.Liveness.cardinal t.live_in.(i)

(* the block's defs live on exit, each once, in program order: a def
   counts when its register is still pending in a copy of the live-out
   set, and leaves it *)
let fold_defs_live_out f acc t i =
  let pending = Dataflow.Liveness.to_bitset t.live_out.(i) in
  List.fold_left
    (fun acc instr ->
      match Instr.def instr with
      | Some d when Bitset.mem pending d.vid ->
        Bitset.remove pending d.vid;
        f acc d
      | Some _ | None -> acc)
    acc (Cfg.block t.cfg i).Block.instrs

let defs_live_out t i =
  List.sort
    (fun (a : Instr.var) b -> compare a.vid b.vid)
    (fold_defs_live_out (fun acc d -> d :: acc) [] t i)

let defs_live_out_count t i = fold_defs_live_out (fun n _ -> n + 1) 0 t i
