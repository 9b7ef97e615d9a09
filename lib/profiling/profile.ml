module Ir = Hypar_ir

type block_stats = {
  block_id : int;
  label : string;
  freq : int;
  static_ops : int;
  dynamic_ops : int;
  loads : int;
  stores : int;
  loop_depth : int;
}

type t = {
  cdfg_name : string;
  blocks : block_stats array;
  edges : ((int * int) * int) list;
  total_instrs_executed : int;
  return_value : int option;
}

let of_result cdfg (r : Interp.result) =
  let blocks =
    Array.mapi
      (fun i (bi : Ir.Cdfg.block_info) ->
        let static_ops = Ir.Block.instr_count bi.block in
        {
          block_id = i;
          label = bi.block.Ir.Block.label;
          freq = r.exec_freq.(i);
          static_ops;
          dynamic_ops = r.exec_freq.(i) * static_ops;
          loads = r.mem_reads.(i);
          stores = r.mem_writes.(i);
          loop_depth = bi.loop_depth;
        })
      (Ir.Cdfg.infos cdfg)
  in
  {
    cdfg_name = Ir.Cdfg.name cdfg;
    blocks;
    edges = r.edge_freq;
    total_instrs_executed = r.instrs_executed;
    return_value = r.return_value;
  }

type backend = [ `Compiled | `Tree ]

let backend_of_env () =
  match Sys.getenv_opt "HYPAR_INTERP" with
  | Some s when String.lowercase_ascii (String.trim s) = "tree" -> `Tree
  | Some _ | None -> `Compiled

let run ?backend ?max_steps ?poll ?inputs cdfg =
  match
    match backend with Some b -> b | None -> backend_of_env ()
  with
  | `Tree -> Interp.run ?max_steps ?poll ?inputs cdfg
  | `Compiled -> Exec.run ?max_steps ?poll ?inputs cdfg

let collect ?backend ?inputs cdfg = of_result cdfg (run ?backend ?inputs cdfg)

let freq t i = if i >= 0 && i < Array.length t.blocks then t.blocks.(i).freq else 0

let hottest ?limit t =
  let sorted =
    List.sort
      (fun a b -> compare b.dynamic_ops a.dynamic_ops)
      (Array.to_list t.blocks)
  in
  match limit with
  | None -> sorted
  | Some k -> List.filteri (fun i _ -> i < k) sorted

let edge_freq t src dst =
  match List.assoc_opt (src, dst) t.edges with Some c -> c | None -> 0

let pp ppf t =
  Format.fprintf ppf "@[<v>profile of %s: %d instrs executed@," t.cdfg_name
    t.total_instrs_executed;
  Array.iter
    (fun b ->
      Format.fprintf ppf
        "  BB%-3d %-20s freq=%-9d ops=%-4d dyn=%-10d ld=%-8d st=%-8d depth=%d@,"
        b.block_id b.label b.freq b.static_ops b.dynamic_ops b.loads b.stores
        b.loop_depth)
    t.blocks;
  Format.fprintf ppf "@]"
