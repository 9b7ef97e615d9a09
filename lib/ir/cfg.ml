type t = {
  blocks : Block.t array;
  entry : int;
  by_label : (Block.label, int) Hashtbl.t;
  succs : int list array;
  preds : int list array;
}

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let of_blocks block_list =
  if block_list = [] then malformed "empty control-flow graph";
  let blocks = Array.of_list block_list in
  let by_label = Hashtbl.create (Array.length blocks) in
  Array.iteri
    (fun i (b : Block.t) ->
      if Hashtbl.mem by_label b.label then
        malformed "duplicate block label %S" b.label;
      Hashtbl.add by_label b.label i)
    blocks;
  let resolve lbl =
    match Hashtbl.find_opt by_label lbl with
    | Some i -> i
    | None -> malformed "branch to unknown label %S" lbl
  in
  let succs =
    Array.map (fun b -> List.map resolve (Block.successor_labels b)) blocks
  in
  let preds = Array.make (Array.length blocks) [] in
  Array.iteri
    (fun i targets -> List.iter (fun j -> preds.(j) <- i :: preds.(j)) targets)
    succs;
  Array.iteri (fun j l -> preds.(j) <- List.rev l) preds;
  { blocks; entry = 0; by_label; succs; preds }

let with_same_edges t blocks = { t with blocks }

let entry t = t.entry
let block_count t = Array.length t.blocks
let block t i = t.blocks.(i)
let blocks t = t.blocks

let id_of_label t lbl =
  match Hashtbl.find_opt t.by_label lbl with
  | Some i -> i
  | None -> raise Not_found

let successors t i = t.succs.(i)
let predecessors t i = t.preds.(i)

let reverse_postorder t =
  let n = Array.length t.blocks in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs t.succs.(i);
      order := i :: !order
    end
  in
  dfs t.entry;
  !order

let reachable t =
  let seen = Array.make (Array.length t.blocks) false in
  List.iter (fun i -> seen.(i) <- true) (reverse_postorder t);
  seen

(* Cooper–Harvey–Kennedy "A Simple, Fast Dominance Algorithm". *)
let idom t =
  let rpo = reverse_postorder t in
  let n = Array.length t.blocks in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun k i -> rpo_index.(i) <- k) rpo;
  let idom = Array.make n (-1) in
  idom.(t.entry) <- t.entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let process i =
      if i <> t.entry then begin
        let processed_preds =
          List.filter (fun p -> idom.(p) <> -1) t.preds.(i)
        in
        match processed_preds with
        | [] -> ()
        | first :: rest ->
          let new_idom = List.fold_left intersect first rest in
          if idom.(i) <> new_idom then begin
            idom.(i) <- new_idom;
            changed := true
          end
      end
    in
    List.iter process rpo
  done;
  idom

let dominates t =
  let idom = idom t in
  fun a b ->
    let rec walk x = if x = a then true else if x = idom.(x) then false else walk idom.(x) in
    if idom.(b) = -1 then false else walk b

let back_edges t =
  let dominates = dominates t in
  let acc = ref [] in
  Array.iteri
    (fun n targets ->
      (* the entry dominates exactly the reachable blocks *)
      if dominates t.entry n then
        List.iter (fun h -> if dominates h n then acc := (n, h) :: !acc) targets)
    t.succs;
  List.rev !acc

let instr_count t =
  Array.fold_left (fun acc b -> acc + Block.instr_count b) 0 t.blocks
