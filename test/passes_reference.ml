(* Reference oracle for {!Hypar_ir.Passes}: the pass bodies as they
   were before the local passes kept their state in register-indexed
   arrays and shared every block they leave alone.  Each block rewrite
   here builds a fresh block, local CSE reads the whole-CFG {!Exprs}
   table, dead-code elimination filters lists, and a pass decides that it
   changed nothing by comparing its blocks structurally.  The constant
   lattice that global constant propagation solves is here too, folding
   each instruction by its own case rather than by {!Instr.eval}.  [optimize]
   chains them exactly as the library pipeline does, without spans or
   verification; the library passes must serialise byte-identically to
   these, pass by pass and as a whole. *)

module Ir = Hypar_ir
module Instr = Ir.Instr
module Types = Ir.Types
module Block = Ir.Block
module Cfg = Ir.Cfg
module Cdfg = Ir.Cdfg
module Loop = Ir.Loop
module Bitset = Ir.Bitset
module Exprs = Ir.Exprs
module Dataflow = Ir.Dataflow

(* when every block equals the input's block at the same index the pass
   changed nothing, and the input itself is returned *)
let rebuild cdfg blocks =
  let old = Cfg.blocks (Cdfg.cfg cdfg) in
  let unchanged =
    List.compare_length_with blocks (Array.length old) = 0
    && List.for_all2 (fun b o -> b == o || b = o) blocks (Array.to_list old)
  in
  if unchanged then cdfg
  else
    Cdfg.make ~name:(Cdfg.name cdfg) ~arrays:(Cdfg.arrays cdfg)
      (Cfg.of_blocks blocks)

let map_blocks f cdfg =
  let blocks =
    List.map
      (fun i -> f ((Cdfg.info cdfg i).Cdfg.block))
      (Cdfg.block_ids cdfg)
  in
  rebuild cdfg blocks

(* --- constant folding ------------------------------------------------ *)

let const_fold_block ?(seed = []) (b : Block.t) =
  let known : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (vid, n) -> Hashtbl.replace known vid n) seed;
  let subst = function
    | Instr.Imm n -> Instr.Imm n
    | Instr.Var v -> (
      match Hashtbl.find_opt known v.vid with
      | Some n -> Instr.Imm n
      | None -> Instr.Var v)
  in
  let learn (dst : Instr.var) = function
    | Some n -> Hashtbl.replace known dst.vid n
    | None -> Hashtbl.remove known dst.vid
  in
  let fold_instr (instr : Instr.t) : Instr.t =
    match instr with
    | Bin { dst; op; a; b } -> (
      let a = subst a and b = subst b in
      match (a, b) with
      | Imm x, Imm y ->
        let n = Types.eval_alu_op op x y in
        learn dst (Some n);
        Mov { dst; src = Imm n }
      | _ ->
        learn dst None;
        Bin { dst; op; a; b })
    | Mul { dst; a; b } -> (
      let a = subst a and b = subst b in
      match (a, b) with
      | Imm x, Imm y ->
        let n = x * y in
        learn dst (Some n);
        Mov { dst; src = Imm n }
      | _ ->
        learn dst None;
        Mul { dst; a; b })
    | Div { dst; a; b } -> (
      let a = subst a and b = subst b in
      match (a, b) with
      | Imm x, Imm y when y <> 0 ->
        let n = x / y in
        learn dst (Some n);
        Mov { dst; src = Imm n }
      | _ ->
        learn dst None;
        Div { dst; a; b })
    | Rem { dst; a; b } -> (
      let a = subst a and b = subst b in
      match (a, b) with
      | Imm x, Imm y when y <> 0 ->
        let n = x mod y in
        learn dst (Some n);
        Mov { dst; src = Imm n }
      | _ ->
        learn dst None;
        Rem { dst; a; b })
    | Un { dst; op; a } -> (
      match subst a with
      | Imm x ->
        let n = Types.eval_un_op op x in
        learn dst (Some n);
        Mov { dst; src = Imm n }
      | a ->
        learn dst None;
        Un { dst; op; a })
    | Mov { dst; src } -> (
      match subst src with
      | Imm n ->
        learn dst (Some n);
        Mov { dst; src = Imm n }
      | src ->
        learn dst None;
        Mov { dst; src })
    | Select { dst; cond; if_true; if_false } -> (
      let cond = subst cond
      and if_true = subst if_true
      and if_false = subst if_false in
      match cond with
      | Imm c ->
        let src = if c <> 0 then if_true else if_false in
        (match src with
        | Imm n -> learn dst (Some n)
        | Var _ -> learn dst None);
        Mov { dst; src }
      | Var _ ->
        learn dst None;
        Select { dst; cond; if_true; if_false })
    | Load { dst; arr; index } ->
      learn dst None;
      Load { dst; arr; index = subst index }
    | Store { arr; index; value } ->
      Store { arr; index = subst index; value = subst value }
  in
  let instrs = List.map fold_instr b.Block.instrs in
  let subst_term = function
    | Block.Branch { cond; if_true; if_false } -> (
      match subst cond with
      | Imm c -> Block.Jump (if c <> 0 then if_true else if_false)
      | cond -> Block.Branch { cond; if_true; if_false })
    | Block.Jump _ as t -> t
    | Block.Return None as t -> t
    | Block.Return (Some op) -> Block.Return (Some (subst op))
  in
  { b with instrs; term = subst_term b.Block.term }

let const_fold cdfg = map_blocks (const_fold_block ?seed:None) cdfg

(* --- algebraic simplification / strength reduction -------------------- *)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let same_var a b =
  match (a, b) with
  | Instr.Var v1, Instr.Var v2 -> Instr.var_equal v1 v2
  | (Instr.Var _ | Instr.Imm _), (Instr.Var _ | Instr.Imm _) -> false

let algebraic_instr (instr : Instr.t) : Instr.t =
  match instr with
  | Instr.Bin { dst; op; a; b } -> (
    let mov src = Instr.Mov { dst; src } in
    match (op, a, b) with
    | Types.Add, x, Imm 0 | Types.Add, Imm 0, x -> mov x
    | Types.Sub, x, Imm 0 -> mov x
    | Types.Sub, x, y when same_var x y -> mov (Imm 0)
    | Types.Xor, x, y when same_var x y -> mov (Imm 0)
    | Types.Xor, x, Imm 0 | Types.Xor, Imm 0, x -> mov x
    | Types.And, x, y when same_var x y -> mov x
    | Types.And, _, Imm 0 | Types.And, Imm 0, _ -> mov (Imm 0)
    | Types.Or, x, y when same_var x y -> mov x
    | Types.Or, x, Imm 0 | Types.Or, Imm 0, x -> mov x
    | (Types.Shl | Types.Shr | Types.Ashr), x, Imm 0 -> mov x
    | Types.Min, x, y | Types.Max, x, y when same_var x y -> mov x
    | (Types.Le | Types.Ge | Types.Eq), x, y when same_var x y -> mov (Imm 1)
    | (Types.Lt | Types.Gt | Types.Ne), x, y when same_var x y -> mov (Imm 0)
    | _, _, _ -> instr)
  | Instr.Mul { dst; a; b } -> (
    match (a, b) with
    | x, Imm 1 | Imm 1, x -> Instr.Mov { dst; src = x }
    | _, Imm 0 | Imm 0, _ -> Instr.Mov { dst; src = Imm 0 }
    | x, Imm n when is_power_of_two n ->
      Instr.Bin { dst; op = Types.Shl; a = x; b = Imm (log2_exact n) }
    | Imm n, x when is_power_of_two n ->
      Instr.Bin { dst; op = Types.Shl; a = x; b = Imm (log2_exact n) }
    | _, _ -> instr)
  | Instr.Div { dst; a; b } -> (
    match b with Imm 1 -> Instr.Mov { dst; src = a } | _ -> instr)
  | Instr.Select { dst; if_true; if_false; _ } when same_var if_true if_false ->
    Instr.Mov { dst; src = if_true }
  | Instr.Rem _ | Instr.Un _ | Instr.Mov _ | Instr.Select _ | Instr.Load _
  | Instr.Store _ ->
    instr

let algebraic_simplify cdfg =
  map_blocks
    (fun b -> { b with Block.instrs = List.map algebraic_instr b.Block.instrs })
    cdfg

(* --- local common-subexpression elimination ---------------------------- *)

(* [holder.(e)] is the fact (expression [e] held in a register) available
   at this point of block [i], or -1; every entry this block sets is reset
   before returning, so one array serves every block of the table *)
let cse_block tbl holder i (b : Block.t) =
  let kill (st : Exprs.step) =
    Bitset.iter
      (fun f ->
        let e = Exprs.fact_expr tbl f in
        if holder.(e) = f then holder.(e) <- -1)
      st.Exprs.kill
  in
  let process k (instr : Instr.t) : Instr.t =
    let st = Exprs.step tbl i k in
    let cached =
      if st.Exprs.expr >= 0 && holder.(st.Exprs.expr) >= 0 then
        Some (Exprs.fact_reg tbl holder.(st.Exprs.expr))
      else None
    in
    kill st;
    match (cached, Instr.def instr) with
    | Some src, Some dst -> Instr.Mov { dst; src = Var src }
    | _ ->
      if st.Exprs.gen >= 0 then holder.(st.Exprs.expr) <- st.Exprs.gen;
      instr
  in
  let instrs = List.mapi process b.Block.instrs in
  List.iteri
    (fun k _ ->
      let e = (Exprs.step tbl i k).Exprs.expr in
      if e >= 0 then holder.(e) <- -1)
    b.Block.instrs;
  { b with Block.instrs }

let common_subexpressions cdfg =
  let tbl = Exprs.build (Cdfg.cfg cdfg) in
  let holder = Array.make (Exprs.expr_count tbl) (-1) in
  rebuild cdfg
    (List.map
       (fun i -> cse_block tbl holder i (Cdfg.info cdfg i).Cdfg.block)
       (Cdfg.block_ids cdfg))

(* --- copy propagation ------------------------------------------------ *)

let copy_propagate_block ?(seed = []) (b : Block.t) =
  (* copies: dst id -> source operand still valid at this point *)
  let copies : (int, Instr.operand) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (vid, src) -> Hashtbl.replace copies vid src) seed;
  let subst = function
    | Instr.Imm n -> Instr.Imm n
    | Instr.Var v -> (
      match Hashtbl.find_opt copies v.vid with
      | Some src -> src
      | None -> Instr.Var v)
  in
  let invalidate (dst : Instr.var) =
    Hashtbl.remove copies dst.vid;
    (* any copy whose source is dst becomes stale *)
    let stale =
      Hashtbl.fold
        (fun k src acc ->
          match src with
          | Instr.Var v when v.vid = dst.vid -> k :: acc
          | Instr.Var _ | Instr.Imm _ -> acc)
        copies []
    in
    List.iter (Hashtbl.remove copies) stale
  in
  let prop (instr : Instr.t) : Instr.t =
    match instr with
    | Bin { dst; op; a; b } ->
      let a = subst a and b = subst b in
      invalidate dst;
      Bin { dst; op; a; b }
    | Mul { dst; a; b } ->
      let a = subst a and b = subst b in
      invalidate dst;
      Mul { dst; a; b }
    | Div { dst; a; b } ->
      let a = subst a and b = subst b in
      invalidate dst;
      Div { dst; a; b }
    | Rem { dst; a; b } ->
      let a = subst a and b = subst b in
      invalidate dst;
      Rem { dst; a; b }
    | Un { dst; op; a } ->
      let a = subst a in
      invalidate dst;
      Un { dst; op; a }
    | Mov { dst; src } ->
      let src = subst src in
      invalidate dst;
      (match src with
      | Var v when v.vid = dst.vid -> ()
      | src' -> Hashtbl.replace copies dst.vid src');
      Mov { dst; src }
    | Select { dst; cond; if_true; if_false } ->
      let cond = subst cond
      and if_true = subst if_true
      and if_false = subst if_false in
      invalidate dst;
      Select { dst; cond; if_true; if_false }
    | Load { dst; arr; index } ->
      let index = subst index in
      invalidate dst;
      Load { dst; arr; index }
    | Store { arr; index; value } ->
      Store { arr; index = subst index; value = subst value }
  in
  let instrs = List.map prop b.Block.instrs in
  let term =
    match b.Block.term with
    | Block.Branch { cond; if_true; if_false } ->
      Block.Branch { cond = subst cond; if_true; if_false }
    | Block.Jump _ as t -> t
    | Block.Return None as t -> t
    | Block.Return (Some op) -> Block.Return (Some (subst op))
  in
  { b with instrs; term }

let copy_propagate cdfg = map_blocks (copy_propagate_block ?seed:None) cdfg

(* --- the constant lattice, with its own folding rule ----------------------- *)

(* {!Dataflow.Consts} with the transfer it had before it shared
   {!Instr.eval} with constant folding: each instruction folds here by its
   own case.  The lattice, the boundary and the edge rule are the
   production ones. *)
module Consts = struct
  include Dataflow.Consts

  let value m = function
    | Instr.Imm n -> Some n
    | Instr.Var v -> Dataflow.Int_map.find_opt v.Instr.vid m

  let set (d : Instr.var) v m =
    match v with
    | Some n -> Dataflow.Int_map.add d.Instr.vid n m
    | None -> Dataflow.Int_map.remove d.Instr.vid m

  (* divisions only fold on a non-zero constant divisor, selects only on
     a constant condition *)
  let transfer _ instr t =
    match t with
    | Unreached -> Unreached
    | Env m ->
      Env
        (match instr with
        | Instr.Bin { dst; op; a; b } ->
          set dst
            (match (value m a, value m b) with
            | Some x, Some y -> Some (Types.eval_alu_op op x y)
            | _ -> None)
            m
        | Instr.Mul { dst; a; b } ->
          set dst
            (match (value m a, value m b) with
            | Some x, Some y -> Some (x * y)
            | _ -> None)
            m
        | Instr.Div { dst; a; b } ->
          set dst
            (match (value m a, value m b) with
            | Some x, Some y when y <> 0 -> Some (x / y)
            | _ -> None)
            m
        | Instr.Rem { dst; a; b } ->
          set dst
            (match (value m a, value m b) with
            | Some x, Some y when y <> 0 -> Some (x mod y)
            | _ -> None)
            m
        | Instr.Un { dst; op; a } ->
          set dst
            (match value m a with
            | Some x -> Some (Types.eval_un_op op x)
            | None -> None)
            m
        | Instr.Mov { dst; src } -> set dst (value m src) m
        | Instr.Select { dst; cond; if_true; if_false } ->
          set dst
            (match value m cond with
            | Some c -> value m (if c <> 0 then if_true else if_false)
            | None -> None)
            m
        | Instr.Load { dst; _ } -> set dst None m
        | Instr.Store _ -> m)
end

(* --- global (dataflow-backed) passes ----------------------------------- *)

(* Each global pass solves one {!Dataflow} analysis and re-runs the
   corresponding local rewrite seeded with the facts holding at block
   entry, so code straddling block boundaries optimises exactly like
   straight-line code.  Blocks the analysis proves unreachable
   ([Unreached]/[All] at entry) are rewritten without a seed: their facts
   are vacuous and seeding from them would be meaningless. *)

let global_const_propagate cdfg =
  let sol = Dataflow.solve (module Consts) (Cdfg.cfg cdfg) in
  let blocks =
    List.map
      (fun i ->
        let b = (Cdfg.info cdfg i).Cdfg.block in
        match sol.Dataflow.at_entry.(i) with
        | Consts.Env m -> const_fold_block ~seed:(Dataflow.Int_map.bindings m) b
        | Consts.Unreached -> const_fold_block b)
      (Cdfg.block_ids cdfg)
  in
  rebuild cdfg blocks

let global_copy_propagate cdfg =
  let sol = Dataflow.solve (module Dataflow.Copies) (Cdfg.cfg cdfg) in
  let blocks =
    List.map
      (fun i ->
        let b = (Cdfg.info cdfg i).Cdfg.block in
        match sol.Dataflow.at_entry.(i) with
        | Dataflow.Copies.Env m ->
          copy_propagate_block ~seed:(Dataflow.Int_map.bindings m) b
        | Dataflow.Copies.All -> copy_propagate_block b)
      (Cdfg.block_ids cdfg)
  in
  rebuild cdfg blocks

let global_cse cdfg =
  let cfg = Cdfg.cfg cdfg in
  let tbl = Exprs.build cfg in
  let sol = Dataflow.Avail.solve tbl cfg in
  let rewrite i (b : Block.t) =
    match sol.Dataflow.at_entry.(i) with
    | Dataflow.Avail.All -> b (* unreachable: no facts to seed from *)
    | Dataflow.Avail.Known entry ->
      (* thread the facts over the original instructions, in place; a
         pure instruction recomputing an expression available here
         becomes a move from the register still holding it *)
      let facts = Bitset.copy entry in
      let instrs =
        List.mapi
          (fun k instr ->
            let st = Exprs.step tbl i k in
            let replacement =
              match Instr.def instr with
              | Some dst when st.Exprs.expr >= 0 -> (
                match Exprs.holder tbl st.Exprs.expr facts with
                | Some cached when not (Instr.var_equal cached dst) ->
                  Some (Instr.Mov { dst; src = Var cached })
                | Some _ | None -> None)
              | Some _ | None -> None
            in
            Exprs.apply tbl st facts;
            Option.value replacement ~default:instr)
          b.Block.instrs
      in
      { b with Block.instrs }
  in
  let blocks =
    List.map (fun i -> rewrite i (Cdfg.info cdfg i).Cdfg.block)
      (Cdfg.block_ids cdfg)
  in
  rebuild cdfg blocks

(* --- dead-code elimination ------------------------------------------- *)

let dead_code_eliminate cdfg =
  let cfg = Cdfg.cfg cdfg in
  let live = (Dataflow.Liveness.solve cfg).Dataflow.at_exit in
  let eliminate i (b : Block.t) =
    (* walked last to first on a copy of the block's live-out set *)
    let live_now = Bitset.copy live.(i) in
    List.iter (fun (v : Instr.var) -> Bitset.add live_now v.vid)
      (Block.terminator_uses b);
    let keep instr =
      let needed =
        match Instr.def instr with
        | None -> true (* stores *)
        | Some dst -> (
          match instr with
          | Instr.Div _ | Instr.Rem _ ->
            true (* may trap: never removed *)
          | Instr.Store _ -> true
          | Instr.Bin _ | Instr.Mul _ | Instr.Un _ | Instr.Mov _
          | Instr.Select _ | Instr.Load _ ->
            Bitset.mem live_now dst.vid)
      in
      if needed then begin
        (match Instr.def instr with
        | Some dst -> Bitset.remove live_now dst.vid
        | None -> ());
        List.iter
          (fun (v : Instr.var) -> Bitset.add live_now v.vid)
          (Instr.used_vars instr)
      end;
      needed
    in
    let kept_rev =
      List.fold_left
        (fun acc instr -> if keep instr then instr :: acc else acc)
        []
        (List.rev b.Block.instrs)
    in
    { b with Block.instrs = kept_rev }
  in
  let blocks =
    List.map (fun i -> eliminate i (Cdfg.info cdfg i).Cdfg.block)
      (Cdfg.block_ids cdfg)
  in
  rebuild cdfg blocks

(* --- control-flow clean-up --------------------------------------------- *)

let simplify_cfg_once cdfg =
  let cfg = Cdfg.cfg cdfg in
  let reachable = Cfg.reachable cfg in
  let blocks =
    List.filteri (fun i _ -> reachable.(i)) (Array.to_list (Cfg.blocks cfg))
  in
  let cfg = Cfg.of_blocks blocks in
  let blocks = Array.copy (Cfg.blocks cfg) in
  let n = Array.length blocks in
  (* collapse branches with identical arms *)
  for i = 0 to n - 1 do
    match blocks.(i).Block.term with
    | Block.Branch { if_true; if_false; _ } when if_true = if_false ->
      blocks.(i) <- { (blocks.(i)) with Block.term = Block.Jump if_true }
    | Block.Branch _ | Block.Jump _ | Block.Return _ -> ()
  done;
  (* thread jumps through empty forwarding blocks (not self-referential) *)
  let forward = Hashtbl.create 8 in
  Array.iteri
    (fun i (b : Block.t) ->
      match (b.instrs, b.term) with
      | [], Block.Jump target
        when target <> b.label && i <> Cfg.entry cfg ->
        Hashtbl.replace forward b.label target
      | _ -> ())
    blocks;
  let rec resolve seen l =
    if List.mem l seen then l
    else
      match Hashtbl.find_opt forward l with
      | Some next -> resolve (l :: seen) next
      | None -> l
  in
  for i = 0 to n - 1 do
    let term = blocks.(i).Block.term in
    let new_term =
      match term with
      | Block.Jump l -> Block.Jump (resolve [] l)
      | Block.Branch { cond; if_true; if_false } ->
        Block.Branch
          { cond; if_true = resolve [] if_true; if_false = resolve [] if_false }
      | Block.Return _ -> term
    in
    blocks.(i) <- { (blocks.(i)) with Block.term = new_term }
  done;
  (* merge one block into its unique Jump successor per pass: a merge
     rewrites the surviving block's terminator, so predecessor sets must
     be recomputed before attempting another — the surrounding fixpoint
     drives convergence *)
  let cfg = Cfg.of_blocks (Array.to_list blocks) in
  let blocks = Array.copy (Cfg.blocks cfg) in
  let removed = Array.make (Array.length blocks) false in
  (try
     for i = 0 to Array.length blocks - 1 do
       match blocks.(i).Block.term with
       | Block.Jump succ_label when succ_label <> blocks.(i).Block.label ->
         let j = Cfg.id_of_label cfg succ_label in
         if j <> Cfg.entry cfg && j <> i && Cfg.predecessors cfg j = [ i ] then begin
           let a = blocks.(i) and b = blocks.(j) in
           blocks.(i) <-
             { a with Block.instrs = a.Block.instrs @ b.Block.instrs;
               term = b.Block.term };
           removed.(j) <- true;
           raise Exit
         end
       | Block.Jump _ | Block.Branch _ | Block.Return _ -> ()
     done
   with Exit -> ());
  let kept =
    List.filteri (fun i _ -> not removed.(i)) (Array.to_list blocks)
  in
  rebuild cdfg kept

let simplify_cfg cdfg =
  (* one merge can happen per pass; loops are deep enough at 64 rounds *)
  let rec go round c =
    if round >= 64 then c
    else
      let c' = simplify_cfg_once c in
      if c' == c then c else go (round + 1) c'
  in
  go 0 cdfg

(* --- loop-invariant code motion ---------------------------------------- *)

(* Hoist from one loop.  [cfg] is the CFG over [blocks], [live] solves
   its liveness on demand and [dominates] answers for its dominator tree.
   Returns the new blocks when anything moved; [blocks] is not mutated. *)
let hoist_loop ~cfg ~live ~dominates (blocks : Block.t array) (loop : Loop.t) =
  let in_loop = Array.make (Array.length blocks) false in
  List.iter (fun b -> in_loop.(b) <- true) loop.Loop.body;
  (* unique out-of-loop predecessor of the header *)
  let outside_preds =
    List.filter (fun p -> not in_loop.(p)) (Cfg.predecessors cfg loop.Loop.header)
  in
  match outside_preds with
  | [ preheader ] ->
    let live_in_header = (live ()).Dataflow.at_entry.(loop.Loop.header) in
    (* definition counts and array stores inside the loop *)
    let def_count : (int, int) Hashtbl.t = Hashtbl.create 32 in
    let stored_arrays : (string, unit) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun b ->
        List.iter
          (fun instr ->
            (match Instr.def instr with
            | Some v ->
              Hashtbl.replace def_count v.vid
                (1 + Option.value (Hashtbl.find_opt def_count v.vid) ~default:0)
            | None -> ());
            if Instr.is_store instr then
              match Instr.accessed_array instr with
              | Some arr -> Hashtbl.replace stored_arrays arr ()
              | None -> ())
          blocks.(b).Block.instrs)
      loop.Loop.body;
    let hoisted_vids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let operand_invariant = function
      | Instr.Imm _ -> true
      | Instr.Var v ->
        (not (Hashtbl.mem def_count v.vid)) || Hashtbl.mem hoisted_vids v.vid
    in
    (* A load may trap (out-of-bounds index), so it can only move to the
       preheader if the loop already executes it whenever it runs at all:
       its block must dominate every latch and every exiting block.
       Hoisting a load that only runs under a branch would *introduce*
       the trap on executions that never take the branch — the ALU ops
       are total (shifts clamp, Div/Rem are never hoisted), so they may
       speculate freely. *)
    let guaranteed_each_iteration =
      let exiting =
        List.filter
          (fun b ->
            List.exists (fun s -> not in_loop.(s)) (Cfg.successors cfg b))
          loop.Loop.body
      in
      let must_dominate = loop.Loop.latches @ exiting in
      fun b -> List.for_all (fun d -> dominates b d) must_dominate
    in
    let is_hoistable b instr =
      let pure =
        match instr with
        | Instr.Bin _ | Instr.Mul _ | Instr.Un _ | Instr.Mov _ | Instr.Select _ ->
          true
        | Instr.Load { arr; _ } ->
          (not (Hashtbl.mem stored_arrays arr)) && guaranteed_each_iteration b
        | Instr.Div _ | Instr.Rem _ | Instr.Store _ -> false
      in
      pure
      && (match Instr.def instr with
         | Some dst ->
           Hashtbl.find_opt def_count dst.vid = Some 1
           && (not (Bitset.mem live_in_header dst.vid))
           && not (Hashtbl.mem hoisted_vids dst.vid)
         | None -> false)
      && List.for_all operand_invariant (Instr.uses instr)
    in
    (* iterate to a fixpoint so chains of invariant ops hoist together *)
    let to_hoist : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          List.iteri
            (fun k instr ->
              if (not (Hashtbl.mem to_hoist (b, k))) && is_hoistable b instr then begin
                Hashtbl.replace to_hoist (b, k) ();
                (match Instr.def instr with
                | Some dst -> Hashtbl.replace hoisted_vids dst.vid ()
                | None -> ());
                changed := true
              end)
            blocks.(b).Block.instrs)
        loop.Loop.body
    done;
    if Hashtbl.length to_hoist = 0 then None
    else begin
      let moved = ref [] in
      let blocks =
        Array.mapi
          (fun b (blk : Block.t) ->
            if not in_loop.(b) then blk
            else begin
              let keep =
                List.filteri
                  (fun k instr ->
                    if Hashtbl.mem to_hoist (b, k) then begin
                      moved := instr :: !moved;
                      false
                    end
                    else true)
                  blk.Block.instrs
              in
              { blk with Block.instrs = keep }
            end)
          blocks
      in
      (* moved instructions keep their original (block-major) order *)
      let moved = List.rev !moved in
      let ph = blocks.(preheader) in
      blocks.(preheader) <- { ph with Block.instrs = ph.Block.instrs @ moved };
      Some blocks
    end
  | [] | _ :: _ :: _ -> None

let loop_invariant_motion cdfg =
  let cfg = Cdfg.cfg cdfg in
  (* innermost loops first: larger depth before smaller, then smaller body *)
  let depth i = (Cdfg.info cdfg i).Cdfg.loop_depth in
  let loops =
    List.sort
      (fun (l1 : Loop.t) (l2 : Loop.t) ->
        match compare (depth l2.Loop.header) (depth l1.Loop.header) with
        | 0 -> compare (List.length l1.Loop.body) (List.length l2.Loop.body)
        | c -> c)
      (Loop.find cfg)
  in
  (* hoisting moves instructions, never edges: one dominator tree serves
     every loop, and the CFG over the current blocks and its liveness are
     rebuilt only after a loop actually hoisted *)
  let dominates = Cfg.dominates cfg in
  let blocks = ref (Cfg.blocks cfg) and cfg = ref cfg and live = ref None in
  let solve () =
    match !live with
    | Some l -> l
    | None ->
      let l = Dataflow.Liveness.solve !cfg in
      live := Some l;
      l
  in
  List.iter
    (fun loop ->
      match hoist_loop ~cfg:!cfg ~live:solve ~dominates !blocks loop with
      | None -> ()
      | Some updated ->
        blocks := updated;
        cfg := Cfg.of_blocks (Array.to_list updated);
        live := None)
    loops;
  rebuild cdfg (Array.to_list !blocks)

(* --- fixpoint --------------------------------------------------------- *)

let simplify ?(max_rounds = 8) cdfg =
  let rec go round c =
    if round >= max_rounds then c
    else
      let c' =
        dead_code_eliminate
          (common_subexpressions
             (copy_propagate (algebraic_simplify (const_fold c))))
      in
      if c' == c then c else go (round + 1) c'
  in
  go 0 cdfg

let global_round c =
  global_const_propagate c |> global_copy_propagate |> global_cse |> simplify
  |> simplify_cfg

let optimize cdfg =
  simplify cdfg |> simplify_cfg |> global_round |> loop_invariant_motion
  |> global_round
