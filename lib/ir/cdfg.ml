type array_decl = {
  aname : string;
  size : int;
  init : int array option;
  is_const : bool;
  elem_width : Types.width;
}

type block_info = { block : Block.t; loop_depth : int }

type t = {
  name : string;
  cfg : Cfg.t;
  arrays : array_decl list;
  infos : block_info array;
  dfgs : Dfg.t option array;  (* block i's DFG, once [dfg t i] built it *)
}

let with_dfgs ~name ~arrays cfg dfgs =
  let depth = Loop.depth_map cfg in
  let infos =
    Array.mapi (fun i b -> { block = b; loop_depth = depth.(i) }) (Cfg.blocks cfg)
  in
  { name; cfg; arrays; infos; dfgs }

let make ?(name = "program") ~arrays cfg =
  with_dfgs ~name ~arrays cfg (Array.make (Cfg.block_count cfg) None)

let with_blocks t blocks =
  let old = Cfg.blocks t.cfg in
  let same_edges =
    List.compare_length_with blocks (Array.length old) = 0
    && List.for_all2
         (fun (b : Block.t) (o : Block.t) -> b.label == o.label && b.term == o.term)
         blocks (Array.to_list old)
  in
  if same_edges then begin
    (* only instructions changed: the edges, the loop depths and the DFG
       of every block whose instruction list is the old one stay *)
    let blocks = Array.of_list blocks in
    let infos =
      Array.mapi (fun i b -> { block = b; loop_depth = t.infos.(i).loop_depth }) blocks
    in
    let dfgs =
      Array.mapi
        (fun i (b : Block.t) -> if b.instrs == old.(i).instrs then t.dfgs.(i) else None)
        blocks
    in
    { t with cfg = Cfg.with_same_edges t.cfg blocks; infos; dfgs }
  end
  else
    let cfg = Cfg.of_blocks blocks in
    (* a DFG depends only on the instructions: keep the built one of every
       block whose instruction list is that of the same-labelled old block *)
    let reuse (b : Block.t) =
      match Cfg.id_of_label t.cfg b.label with
      | j -> if t.infos.(j).block.instrs == b.instrs then t.dfgs.(j) else None
      | exception Not_found -> None
    in
    with_dfgs ~name:t.name ~arrays:t.arrays cfg (Array.map reuse (Cfg.blocks cfg))

(* A plain memo slot, not a [Lazy.t]: domains that race on an empty slot
   each build the same DFG and one write wins, where forcing a shared
   [Lazy.t] from a second domain raises [Lazy.Undefined]. *)
let dfg t i =
  match t.dfgs.(i) with
  | Some d -> d
  | None ->
    let d = Dfg.of_instrs t.infos.(i).block.instrs in
    t.dfgs.(i) <- Some d;
    d

let name t = t.name
let cfg t = t.cfg
let arrays t = t.arrays

let array_decl t aname =
  List.find_opt (fun d -> d.aname = aname) t.arrays

let block_count t = Array.length t.infos
let info t i = t.infos.(i)
let infos t = t.infos
let block_ids t = List.init (Array.length t.infos) Fun.id
let total_instrs t = Cfg.instr_count t.cfg

let validate t =
  let error = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !error = None then error := Some s) fmt in
  Array.iter
    (fun bi ->
      List.iter
        (fun instr ->
          match Instr.accessed_array instr with
          | None -> ()
          | Some arr -> (
            match array_decl t arr with
            | None -> fail "block %s: access to undeclared array %S" bi.block.Block.label arr
            | Some d ->
              if d.is_const && Instr.is_store instr then
                fail "block %s: store to const array %S" bi.block.Block.label arr))
        bi.block.Block.instrs)
    t.infos;
  match !error with None -> Ok () | Some msg -> Error msg

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>CDFG %s: %d blocks, %d instrs@," t.name
    (block_count t) (total_instrs t);
  Array.iteri
    (fun i bi ->
      Format.fprintf ppf "  BB%-3d %-16s instrs=%-4d levels=%-3d loop-depth=%d@,"
        i bi.block.Block.label
        (Block.instr_count bi.block)
        (Dfg.max_level (dfg t i)) bi.loop_depth)
    t.infos;
  Format.fprintf ppf "@]"
