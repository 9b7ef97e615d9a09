type node = { id : int; instr : Instr.t }

type t = {
  nodes : node array;
  succs : int list array;
  preds : int list array;
  asap_levels : int array;
  alap_levels : int array;
  max_level : int;
  level_order : int array;
  live_ins : Instr.var list;
  (* the list scheduler's view, built on first use: see [pred_arrays]
     and [critical_order] *)
  mutable pred_arrays : int array array option;
  mutable critical_order : int array option;
}

module Int_set = Set.Make (Int)

(* Dependence edges of a straight-line sequence:
   - RAW: use of v depends on the last def of v;
   - WAW: a def of v depends on the previous def of v;
   - WAR: a def of v depends on every use of v since its last def;
   - memory: a load depends on the last store to the same array, a store
     depends on the last store and on every load since it (per array). *)
let edges_of_instrs instrs =
  let n = Array.length instrs in
  let last_def : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let uses_since_def : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let last_store : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let loads_since_store : (string, int list) Hashtbl.t = Hashtbl.create 4 in
  let live_ins = ref [] in
  let seen_live_in = Hashtbl.create 16 in
  let edge_set = ref Int_set.empty in
  let edges = Array.make n [] in
  let add_edge src dst =
    if src <> dst then begin
      let key = (src * n) + dst in
      if not (Int_set.mem key !edge_set) then begin
        edge_set := Int_set.add key !edge_set;
        edges.(src) <- dst :: edges.(src)
      end
    end
  in
  for i = 0 to n - 1 do
    let instr = instrs.(i) in
    let record_use (v : Instr.var) =
      (match Hashtbl.find_opt last_def v.vid with
      | Some d -> add_edge d i
      | None ->
        if not (Hashtbl.mem seen_live_in v.vid) then begin
          Hashtbl.replace seen_live_in v.vid ();
          live_ins := v :: !live_ins
        end);
      let prev =
        match Hashtbl.find_opt uses_since_def v.vid with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace uses_since_def v.vid (i :: prev)
    in
    List.iter record_use (Instr.used_vars instr);
    (match Instr.accessed_array instr with
    | None -> ()
    | Some arr ->
      if Instr.is_load instr then begin
        (match Hashtbl.find_opt last_store arr with
        | Some s -> add_edge s i
        | None -> ());
        let prev =
          match Hashtbl.find_opt loads_since_store arr with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace loads_since_store arr (i :: prev)
      end
      else begin
        (match Hashtbl.find_opt last_store arr with
        | Some s -> add_edge s i
        | None -> ());
        (match Hashtbl.find_opt loads_since_store arr with
        | Some loads -> List.iter (fun l -> add_edge l i) loads
        | None -> ());
        Hashtbl.replace last_store arr i;
        Hashtbl.replace loads_since_store arr []
      end);
    match Instr.def instr with
    | None -> ()
    | Some v ->
      (match Hashtbl.find_opt last_def v.vid with
      | Some d -> add_edge d i
      | None -> ());
      (match Hashtbl.find_opt uses_since_def v.vid with
      | Some us -> List.iter (fun u -> add_edge u i) us
      | None -> ());
      Hashtbl.replace last_def v.vid i;
      Hashtbl.replace uses_since_def v.vid []
  done;
  (Array.map List.rev edges, List.rev !live_ins)

let of_instrs instr_list =
  let instrs = Array.of_list instr_list in
  let n = Array.length instrs in
  let succs, live_ins = edges_of_instrs instrs in
  let preds = Array.make n [] in
  Array.iteri
    (fun src targets ->
      List.iter (fun dst -> preds.(dst) <- src :: preds.(dst)) targets)
    succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  (* Edges always point forward in program order, so a single forward
     (resp. backward) sweep computes ASAP (resp. ALAP). *)
  let asap_levels = Array.make n 1 in
  for i = 0 to n - 1 do
    List.iter
      (fun p ->
        if asap_levels.(p) + 1 > asap_levels.(i) then
          asap_levels.(i) <- asap_levels.(p) + 1)
      preds.(i)
  done;
  let max_level = Array.fold_left max 0 asap_levels in
  let alap_levels = Array.make n max_level in
  for i = n - 1 downto 0 do
    List.iter
      (fun s ->
        if alap_levels.(s) - 1 < alap_levels.(i) then
          alap_levels.(i) <- alap_levels.(s) - 1)
      succs.(i)
  done;
  (* counting sort by level; ids ascend within a level because they are
     placed in ascending order *)
  let level_start = Array.make (max_level + 1) 0 in
  Array.iter (fun l -> level_start.(l) <- level_start.(l) + 1) asap_levels;
  for l = 1 to max_level do
    level_start.(l) <- level_start.(l) + level_start.(l - 1)
  done;
  let level_order = Array.make n 0 in
  let next = Array.sub level_start 0 max_level in
  for i = 0 to n - 1 do
    let l = asap_levels.(i) - 1 in
    level_order.(next.(l)) <- i;
    next.(l) <- next.(l) + 1
  done;
  let nodes = Array.mapi (fun id instr -> { id; instr }) instrs in
  {
    nodes;
    succs;
    preds;
    asap_levels;
    alap_levels;
    max_level;
    level_order;
    live_ins;
    pred_arrays = None;
    critical_order = None;
  }

let node_count t = Array.length t.nodes
let node t i = t.nodes.(i)
let nodes t = Array.to_list t.nodes
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let asap t = Array.copy t.asap_levels
let level t i = t.asap_levels.(i)
let alap t = Array.copy t.alap_levels
let max_level t = t.max_level

let level_order t = t.level_order

(* Plain memo slots, like [Cdfg.dfg]'s: domains that race on an empty
   slot compute equal arrays and either may win. *)
let pred_arrays t =
  match t.pred_arrays with
  | Some a -> a
  | None ->
    let a = Array.map Array.of_list t.preds in
    t.pred_arrays <- Some a;
    a

let critical_order t =
  match t.critical_order with
  | Some a -> a
  | None ->
    let n = Array.length t.nodes in
    let fanout = Array.map List.length t.succs in
    let ids = Array.init n Fun.id in
    Array.stable_sort
      (fun a b ->
        match Int.compare t.alap_levels.(a) t.alap_levels.(b) with
        | 0 -> (
          match Int.compare fanout.(b) fanout.(a) with
          | 0 -> Int.compare a b
          | c -> c)
        | c -> c)
      ids;
    t.critical_order <- Some ids;
    ids

let live_in_vars t = t.live_ins

let is_well_formed t =
  let ok = ref true in
  Array.iteri
    (fun src targets -> List.iter (fun dst -> if dst <= src then ok := false) targets)
    t.succs;
  !ok
