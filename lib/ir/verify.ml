type invariant =
  | Entry_reachable
  | Terminators_resolve
  | Dfg_well_formed
  | Defs_before_uses
  | Liveness_consistent
  | Arrays_declared
  | Roundtrip_stable

let all_invariants =
  [
    Entry_reachable; Terminators_resolve; Dfg_well_formed; Defs_before_uses;
    Liveness_consistent; Arrays_declared; Roundtrip_stable;
  ]

let invariant_name = function
  | Entry_reachable -> "entry-reachable"
  | Terminators_resolve -> "terminators-resolve"
  | Dfg_well_formed -> "dfg-well-formed"
  | Defs_before_uses -> "defs-before-uses"
  | Liveness_consistent -> "liveness-consistent"
  | Arrays_declared -> "arrays-declared"
  | Roundtrip_stable -> "roundtrip-stable"

type violation = { invariant : invariant; where : string; detail : string }

exception Failed of { context : string; violations : violation list }

let violation invariant where fmt =
  Format.kasprintf (fun detail -> { invariant; where; detail }) fmt

let pp_violation ppf v =
  Format.fprintf ppf "%s(%s): %s" (invariant_name v.invariant) v.where v.detail

let report violations =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_violation) violations)

let () =
  Printexc.register_printer (function
    | Failed { context; violations } ->
      Some
        (Printf.sprintf "IR verification failed after %S:\n%s" context
           (report violations))
    | _ -> None)

(* --- raw block lists ---------------------------------------------------- *)

let check_blocks (blocks : Block.t list) =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  (match blocks with
  | [] -> add (violation Entry_reachable "<program>" "no blocks: no entry block")
  | _ :: _ -> ());
  let labels : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      if Hashtbl.mem labels b.label then
        add (violation Terminators_resolve b.label "duplicate block label")
      else Hashtbl.replace labels b.label ())
    blocks;
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun target ->
          if not (Hashtbl.mem labels target) then
            add
              (violation Terminators_resolve b.label
                 "terminator targets unknown label %S" target))
        (Block.successor_labels b))
    blocks;
  List.rev !acc

(* --- per-block DFGs ----------------------------------------------------- *)

let check_dfg_against (block : Block.t) (dfg : Dfg.t) =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  let where = block.Block.label in
  let n = Dfg.node_count dfg in
  let instrs = Array.of_list block.Block.instrs in
  if n <> Array.length instrs then
    add
      (violation Dfg_well_formed where "%d DFG nodes for %d instructions" n
         (Array.length instrs))
  else
    List.iter
      (fun (node : Dfg.node) ->
        if node.instr <> instrs.(node.id) then
          add
            (violation Dfg_well_formed where
               "node %d is %s but instruction %d is %s" node.id
               (Instr.to_string node.instr) node.id
               (Instr.to_string instrs.(node.id))))
      (Dfg.nodes dfg);
  if not (Dfg.is_well_formed dfg) then
    add (violation Dfg_well_formed where "a dependence edge points backward");
  for i = 0 to n - 1 do
    List.iter
      (fun j ->
        if j < 0 || j >= n then
          add (violation Dfg_well_formed where "edge %d->%d leaves the block" i j)
        else begin
          if j <= i then
            add
              (violation Dfg_well_formed where
                 "edge %d->%d is not forward in program order" i j);
          if not (List.mem i (Dfg.preds dfg j)) then
            add
              (violation Dfg_well_formed where
                 "edge %d->%d missing from predecessor lists" i j)
        end)
      (Dfg.succs dfg i)
  done;
  List.rev !acc

(* --- register definition discipline ------------------------------------- *)

let var_set_of_list vars =
  List.sort_uniq compare
    (List.map (fun (v : Instr.var) -> (v.vid, v.vname)) vars)

let pp_var_set vars =
  String.concat ", "
    (List.map (fun (vid, vname) -> Printf.sprintf "%s#%d" vname vid) vars)

let defs_before_uses (cfg : Cfg.t) live =
  match var_set_of_list (Live.live_in live (Cfg.entry cfg)) with
  | [] -> []
  | undefined ->
    let entry_label = (Cfg.block cfg (Cfg.entry cfg)).Block.label in
    [
      violation Defs_before_uses entry_label
        "registers read before any definition: %s" (pp_var_set undefined);
    ]

(* --- liveness data-flow equations ---------------------------------------- *)

let block_defs (b : Block.t) =
  List.filter_map Instr.def b.Block.instrs

let reachable_set cfg =
  let seen = Array.make (Cfg.block_count cfg) false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go (Cfg.successors cfg i)
    end
  in
  go (Cfg.entry cfg);
  seen

let check_liveness cfg ~live_in ~live_out =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  (* the data-flow equations only constrain blocks the fixpoint visits:
     blocks a pass has disconnected (constant-folded branches, before
     simplify_cfg prunes them) carry no liveness obligations *)
  let reachable = reachable_set cfg in
  for b = 0 to Cfg.block_count cfg - 1 do
    if reachable.(b) then begin
      let block = Cfg.block cfg b in
      let where = block.Block.label in
      let defs = var_set_of_list (block_defs block) in
      let uses = var_set_of_list (Live.use_set cfg b) in
      let l_in = var_set_of_list (live_in b) in
      let l_out = var_set_of_list (live_out b) in
      let expect_in =
        List.sort_uniq compare
          (uses @ List.filter (fun v -> not (List.mem v defs)) l_out)
      in
      if l_in <> expect_in then
        add
          (violation Liveness_consistent where
             "live-in {%s} but use+(out-def) gives {%s}" (pp_var_set l_in)
             (pp_var_set expect_in));
      let expect_out =
        List.sort_uniq compare
          (List.concat_map
             (fun s -> var_set_of_list (live_in s))
             (Cfg.successors cfg b))
      in
      if l_out <> expect_out then
        add
          (violation Liveness_consistent where
             "live-out {%s} but successors give {%s}" (pp_var_set l_out)
             (pp_var_set expect_out))
    end
  done;
  List.rev !acc

(* --- array discipline ---------------------------------------------------- *)

let check_arrays (cdfg : Cdfg.t) =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  Array.iter
    (fun (bi : Cdfg.block_info) ->
      List.iter
        (fun instr ->
          match Instr.accessed_array instr with
          | None -> ()
          | Some arr -> (
            match Cdfg.array_decl cdfg arr with
            | None ->
              add
                (violation Arrays_declared bi.block.Block.label
                   "access to undeclared array %S" arr)
            | Some d ->
              if d.Cdfg.is_const && Instr.is_store instr then
                add
                  (violation Arrays_declared bi.block.Block.label
                     "store to const array %S" arr)))
        bi.block.Block.instrs)
    (Cdfg.infos cdfg);
  List.rev !acc

(* --- serialisation round-trip -------------------------------------------- *)

let structural_diff (a : Cdfg.t) (b : Cdfg.t) =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  if Cdfg.name a <> Cdfg.name b then
    add
      (violation Roundtrip_stable "<program>" "name %S became %S" (Cdfg.name a)
         (Cdfg.name b));
  if Cdfg.arrays a <> Cdfg.arrays b then
    add (violation Roundtrip_stable "<program>" "array declarations differ");
  let ba = Cfg.blocks (Cdfg.cfg a) and bb = Cfg.blocks (Cdfg.cfg b) in
  if Array.length ba <> Array.length bb then
    add
      (violation Roundtrip_stable "<program>" "%d blocks became %d"
         (Array.length ba) (Array.length bb))
  else
    Array.iteri
      (fun i (orig : Block.t) ->
        let got = bb.(i) in
        if orig.Block.label <> got.Block.label then
          add
            (violation Roundtrip_stable orig.Block.label "label became %S"
               got.Block.label)
        else if orig <> got then
          add
            (violation Roundtrip_stable orig.Block.label
               "instructions or terminator changed"))
      ba;
  List.rev !acc

let check_roundtrip cdfg =
  match Serialize.of_string (Serialize.to_string cdfg) with
  | reparsed -> structural_diff cdfg reparsed
  | exception Serialize.Parse_error msg ->
    [ violation Roundtrip_stable "<program>" "reparse failed: %s" msg ]
  | exception Cfg.Malformed msg ->
    [ violation Roundtrip_stable "<program>" "reparse rejected the CFG: %s" msg ]

(* --- the full check ------------------------------------------------------ *)

let check (cdfg : Cdfg.t) =
  let cfg = Cdfg.cfg cdfg in
  let blocks = Array.to_list (Cfg.blocks cfg) in
  let structural = check_blocks blocks in
  (* downstream checks assume a resolvable CFG *)
  if structural <> [] then structural
  else begin
    let live = Live.analyse cfg in
    List.concat
      [
        List.concat_map
          (fun i -> check_dfg_against (Cfg.block cfg i) (Cdfg.dfg cdfg i))
          (Cdfg.block_ids cdfg);
        defs_before_uses cfg live;
        check_liveness cfg
          ~live_in:(Live.live_in live)
          ~live_out:(Live.live_out live);
        check_arrays cdfg;
        check_roundtrip cdfg;
      ]
  end

let check_exn ~context cdfg =
  match check cdfg with
  | [] -> ()
  | violations -> raise (Failed { context; violations })
