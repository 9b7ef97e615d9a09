module Ir = Hypar_ir

type partition = { index : int; node_ids : int list; area_used : int }

type t = { partitions : partition list; assignment : int array }

type cost = { count : int; compute_cycles : int; reconfig_cycles : int }

(* Figure 3, as one walk over the level order:
     i = 1; area_covered = 0;
     for level = 1 .. max_level:
       for each node u with level(u) = level:
         if area_covered + size(u) <= A then partition(u) = i; accumulate
         else i = i+1; partition(u) = i; area_covered = size(u)
   Partitions never decrease along the walk, so the nodes of each
   partition, and of each (partition, level) group, are contiguous: the
   walk adds a group's max delay when the group ends and a partition's
   reconfiguration when the partition ends, with no table.  The
   pseudocode can leave partition 1 empty (an oversized first node opens
   partition 2 at once); only partitions that receive a node count.
   [on_node u p] sees every node with its partition, [on_partition p a]
   every partition with its area, once its last node has been seen. *)
let walk ~area ~size ~delay ~reconfig ~on_node ~on_partition dfg =
  if area <= 0 then invalid_arg "Temporal.partition: area must be positive";
  let current = ref 1 and covered = ref 0 in
  let count = ref 0 and compute = ref 0 and reconfig_total = ref 0 in
  (* the partition and level being walked; partition 0 before any node *)
  let part = ref 0 and part_area = ref 0 in
  let level = ref 0 and group_delay = ref 0 in
  let end_partition () =
    if !part > 0 then begin
      incr count;
      reconfig_total := !reconfig_total + reconfig ~partition_area:!part_area;
      on_partition !part !part_area
    end
  in
  Array.iter
    (fun u ->
      let instr = (Ir.Dfg.node dfg u).Ir.Dfg.instr in
      let s = size instr in
      if !covered + s <= area then covered := !covered + s
      else begin
        incr current;
        covered := s
      end;
      let l = Ir.Dfg.level dfg u in
      if !current <> !part || l <> !level then begin
        compute := !compute + !group_delay;
        group_delay := 0;
        level := l
      end;
      if !current <> !part then begin
        end_partition ();
        part := !current;
        part_area := 0
      end;
      part_area := !part_area + s;
      let d = delay instr in
      if d > !group_delay then group_delay := d;
      on_node u !current)
    (Ir.Dfg.level_order dfg);
  end_partition ();
  {
    count = !count;
    compute_cycles = !compute + !group_delay;
    reconfig_cycles = !reconfig_total;
  }

let skip _ _ = ()

let price ~delay ~reconfig ~area ~size dfg =
  walk ~area ~size ~delay ~reconfig ~on_node:skip ~on_partition:skip dfg

(* the walk, recording each node's partition and each partition's
   members (in visiting order) and area *)
let partition_priced ~delay ~reconfig ~area ~size dfg =
  let assignment = Array.make (Ir.Dfg.node_count dfg) 0 in
  let members = ref [] and partitions = ref [] in
  let on_node u p =
    assignment.(u) <- p;
    members := u :: !members
  in
  let on_partition index area_used =
    partitions := { index; node_ids = List.rev !members; area_used } :: !partitions;
    members := []
  in
  let cost = walk ~area ~size ~delay ~reconfig ~on_node ~on_partition dfg in
  ({ partitions = List.rev !partitions; assignment }, cost)

let partition ~area ~size dfg =
  fst
    (partition_priced
       ~delay:(fun _ -> 0)
       ~reconfig:(fun ~partition_area:_ -> 0)
       ~area ~size dfg)

(* Baseline: first-fit with backfill.  Visiting nodes in the same
   level-by-level order, place each node into the lowest-indexed
   partition with room, at or after all its predecessors' partitions. *)
let partition_best_fit ~area ~size dfg =
  if area <= 0 then invalid_arg "Temporal.partition_best_fit: area must be positive";
  let n = Ir.Dfg.node_count dfg in
  let assignment = Array.make n 0 in
  let used : int array ref = ref (Array.make 8 0) in
  let highest = ref 0 in
  let ensure p =
    if p >= Array.length !used then begin
      let bigger = Array.make (2 * (p + 1)) 0 in
      Array.blit !used 0 bigger 0 (Array.length !used);
      used := bigger
    end
  in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun u ->
      let node_area = size (Ir.Dfg.node dfg u).Ir.Dfg.instr in
      let earliest =
        List.fold_left
          (fun acc p -> max acc assignment.(p))
          1 (Ir.Dfg.preds dfg u)
      in
      let rec place p =
        ensure p;
        if p > !highest then begin
          (* a fresh partition always accepts the node *)
          highest := p;
          p
        end
        else if !used.(p) + node_area <= area then p
        else place (p + 1)
      in
      let p = place earliest in
      ensure p;
      !used.(p) <- !used.(p) + node_area;
      assignment.(u) <- p;
      let prev = match Hashtbl.find_opt members p with Some l -> l | None -> [] in
      Hashtbl.replace members p (u :: prev))
    (Ir.Dfg.level_order dfg);
  let partitions =
    if n = 0 then []
    else
      List.filter_map
        (fun k ->
          let index = k + 1 in
          match Hashtbl.find_opt members index with
          | Some l ->
            Some
              { index; node_ids = List.rev l; area_used = !used.(index) }
          | None -> None)
        (List.init !highest Fun.id)
  in
  { partitions; assignment }

let count t = List.length t.partitions

let is_valid dfg t =
  let ok = ref true in
  List.iter
    (fun (nd : Ir.Dfg.node) ->
      List.iter
        (fun v -> if t.assignment.(nd.id) > t.assignment.(v) then ok := false)
        (Ir.Dfg.succs dfg nd.id))
    (Ir.Dfg.nodes dfg);
  !ok

let pp ppf t =
  Format.fprintf ppf "@[<v>%d temporal partition(s):@," (count t);
  List.iter
    (fun p ->
      Format.fprintf ppf "  #%d area=%-5d nodes=[%s]@," p.index p.area_used
        (String.concat ";" (List.map string_of_int p.node_ids)))
    t.partitions;
  Format.fprintf ppf "@]"
