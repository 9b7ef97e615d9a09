(* --- pass-boundary verification ---------------------------------------- *)

let verify_passes =
  ref
    (match Sys.getenv_opt "HYPAR_VERIFY_IR" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let span name f =
  if Hypar_obs.Sink.enabled () then
    Hypar_obs.Span.with_ ~cat:"ir" ("ir.pass." ^ name) f
  else f ()

(* verify [out] when verification is on, then set the size gauges and
   count what [name] removed from [before] *)
let observe ?verify name ~before out =
  if Option.value verify ~default:!verify_passes then
    Verify.check_exn ~context:name out;
  if Hypar_obs.Sink.enabled () then begin
    Hypar_obs.Counter.set "ir.blocks" (Cdfg.block_count out);
    Hypar_obs.Counter.set "ir.instrs" (Cdfg.total_instrs out);
    (* per-pass shrink accounting, surfaced by [hypar ... --stats] *)
    let di = Cdfg.total_instrs before - Cdfg.total_instrs out in
    if di > 0 then
      Hypar_obs.Counter.incr ("ir.shrink." ^ name ^ ".instrs") ~by:di;
    let db = Cdfg.block_count before - Cdfg.block_count out in
    if db > 0 then
      Hypar_obs.Counter.incr ("ir.shrink." ^ name ^ ".blocks") ~by:db
  end

(* a pass that changed nothing returns its input physically, and that
   input was already observed: verified, gauged and counted *)
let checked ?verify name pass cdfg =
  span name (fun () ->
      let out = pass cdfg in
      if out != cdfg then observe ?verify name ~before:cdfg out;
      out)

(* --- sharing what a pass leaves alone ------------------------------------ *)

(* [map_same f l] is [List.map f l], applied first to last, except that it
   is [l] itself when [f] returns every element physically: a block whose
   instructions a pass leaves alone keeps its list *)
let map_same f l =
  let rec scan = function
    | [] -> l
    | x :: rest as cell ->
      let y = f x in
      if y == x then scan rest
      else
        (* the elements before [cell], which [f] returned unchanged *)
        let rec prefix acc c =
          if c == cell then acc
          else match c with h :: t -> prefix (h :: acc) t | [] -> acc
        in
        List.rev_append (prefix [] l) (y :: List.map f rest)
  in
  scan l

(* a block with [instrs] and [term], or [b] itself when both are its own *)
let with_body (b : Block.t) instrs term =
  if instrs == b.Block.instrs && term == b.Block.term then b
  else { b with Block.instrs; term }

(* the one place a pass's new blocks become a CDFG.  Every pass hands
   back the input's own block wherever it changed nothing, so a physical
   comparison per block tells whether it changed anything at all, and
   {!Cdfg.with_blocks} keeps the edges and loop depths when no label or
   terminator is new *)
let rebuild cdfg blocks =
  let old = Cfg.blocks (Cdfg.cfg cdfg) in
  if Array.length blocks = Array.length old && Array.for_all2 ( == ) blocks old
  then cdfg
  else Cdfg.with_blocks cdfg (Array.to_list blocks)

let mapi_blocks f cdfg =
  rebuild cdfg (Array.mapi (fun i bi -> f i bi.Cdfg.block) (Cdfg.infos cdfg))

let map_blocks f cdfg = mapi_blocks (fun _ b -> f b) cdfg

(* --- constant folding ------------------------------------------------ *)

(* The block rewrites below track, per register the block has already
   defined, what it holds at this point: an operand, or [varying].  A
   register the block has not defined yet still holds its block-entry
   fact, read from the seed on demand, so a seed costs nothing for the
   registers a block never reads. *)
let no_reg = { Instr.vname = ""; vid = -1; vwidth = 0 }
let varying = Dataflow.varying

(* register id -> [Imm n] for a known constant, or [varying] *)
let block_consts : Instr.operand Regs.key = Regs.per_domain varying

let const_fold_block ?(seed = Dataflow.seed Unreached) (b : Block.t) =
  let known = Regs.fresh block_consts in
  let subst op =
    match op with
    | Instr.Imm _ -> op
    | Instr.Var v ->
      if Regs.mem known v.vid then
        match Regs.get known v.vid with Imm _ as c -> c | Var _ -> op
      else match seed v.vid with Imm _ as c -> c | Var _ -> op
  in
  let forget (dst : Instr.var) = Regs.set known dst.vid varying in
  (* [dst] gets the constant [n]: the instruction becomes a move of it *)
  let fold (dst : Instr.var) n =
    let src = Instr.Imm n in
    Regs.set known dst.vid src;
    Instr.Mov { dst; src }
  in
  let imm = function Instr.Imm n -> Some n | Instr.Var _ -> None in
  let fold_instr (instr : Instr.t) : Instr.t =
    (match instr with
    | Load { dst; _ } -> forget dst (* before the index is read *)
    | Bin _ | Mul _ | Div _ | Rem _ | Un _ | Mov _ | Select _ | Store _ -> ());
    let instr = Instr.map_operands subst instr in
    match Instr.def instr with
    | None -> instr
    | Some dst -> (
      match (Instr.eval imm instr, instr) with
      | Some _, Mov { src; _ } ->
        Regs.set known dst.vid src;
        instr
      | Some n, _ -> fold dst n
      | None, Select { cond = Imm c; if_true; if_false; _ } ->
        (* a known condition picks an operand that is not a constant *)
        forget dst;
        Mov { dst; src = (if c <> 0 then if_true else if_false) }
      | None, _ ->
        forget dst;
        instr)
  in
  let instrs = map_same fold_instr b.Block.instrs in
  let term =
    match Block.map_terminator_operands subst b.Block.term with
    | Block.Branch { cond = Imm c; if_true; if_false } ->
      Block.Jump (if c <> 0 then if_true else if_false)
    | (Block.Branch _ | Block.Jump _ | Block.Return _) as t -> t
  in
  with_body b instrs term

let const_fold cdfg = map_blocks (fun b -> const_fold_block b) cdfg

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
    (fun b -> with_body b (map_same algebraic_instr b.Block.instrs) b.Block.term)
    cdfg

(* --- local common-subexpression elimination ---------------------------- *)

(* One pure expression of the block being rewritten and the register
   holding its value at this point ([no_reg] while none does).  Each
   structural key has one entry per block: a kill empties its holder and
   a later computation of the key refills it. *)
type avail = { key : Exprs.key; mutable holder : Instr.var }

(* the first register a key reads, or -1 for a key of immediates only *)
let first_reg (k : Exprs.key) =
  let r = ref (-1) in
  Exprs.iter_regs (fun v -> if !r < 0 then r := v) k;
  !r

(* per register: the entries whose key reads it, where a key is also
   looked up under its first register, and the entries it was made the
   holder of — the kill index *)
let cse_readers : avail list Regs.key = Regs.per_domain []
let cse_held : avail list Regs.key = Regs.per_domain []

let cse_block (b : Block.t) =
  let readers = Regs.fresh cse_readers and held = Regs.fresh cse_held in
  (* the entries of keys that read no register *)
  let immediate = ref [] in
  (* array name -> the entries of its loads *)
  let loads = ref [] in
  let entry k =
    let r = first_reg k in
    let chain = if r >= 0 then Regs.get readers r else !immediate in
    match List.find_opt (fun e -> Exprs.key_equal e.key k) chain with
    | Some e -> e
    | None ->
      let e = { key = k; holder = no_reg } in
      if r < 0 then immediate := e :: chain;
      Exprs.iter_regs (fun v -> Regs.push readers v e) k;
      (match k with
      | Load (arr, _) -> (
        match List.assoc_opt arr !loads with
        | Some l -> l := e :: !l
        | None -> loads := (arr, ref [ e ]) :: !loads)
      | Bin _ | Mul _ | Un _ | Select _ -> ());
      e
  in
  (* a redefinition of [vid] kills every expression reading it and every
     expression it still holds *)
  let kill vid =
    List.iter (fun e -> e.holder <- no_reg) (Regs.get readers vid);
    List.iter
      (fun e -> if e.holder.Instr.vid = vid then e.holder <- no_reg)
      (Regs.get held vid);
    Regs.remove held vid
  in
  let process (instr : Instr.t) : Instr.t =
    match instr with
    | Store { arr; _ } ->
      (match List.assoc_opt arr !loads with
      | Some l -> List.iter (fun e -> e.holder <- no_reg) !l
      | None -> ());
      instr
    | Bin { dst; _ } | Mul { dst; _ } | Div { dst; _ } | Rem { dst; _ }
    | Un { dst; _ } | Mov { dst; _ } | Select { dst; _ } | Load { dst; _ } -> (
      match Exprs.key instr with
      | None ->
        kill dst.vid;
        instr
      | Some k ->
        let e = entry k in
        let cached = e.holder in
        kill dst.vid;
        if cached != no_reg then Instr.Mov { dst; src = Var cached }
        else begin
          (* x = x + 1 is stale the moment it is computed *)
          if not (Exprs.reads_reg k dst.vid) then begin
            e.holder <- dst;
            Regs.push held dst.vid e
          end;
          instr
        end)
  in
  with_body b (map_same process b.Block.instrs) b.Block.term

let common_subexpressions cdfg = map_blocks cse_block cdfg

(* --- copy propagation ------------------------------------------------ *)

(* register id -> the operand it is a copy of at this point, or
   [varying]; and the reverse index: register id -> the registers the
   block copied from it *)
let block_copies : Instr.operand Regs.key = Regs.per_domain varying
let copy_readers : int list Regs.key = Regs.per_domain []

let copy_propagate_block ?(seed = Dataflow.seed Unreached) (b : Block.t) =
  let copies = Regs.fresh block_copies and readers = Regs.fresh copy_readers in
  let subst op =
    match op with
    | Instr.Imm _ -> op
    | Instr.Var v ->
      if Regs.mem copies v.vid then
        let src = Regs.get copies v.vid in
        if src == varying then op else src
      else
        (* an entry copy holds until the block redefines its source *)
        match seed v.vid with
        | Var s as src when src != varying && not (Regs.mem copies s.vid) -> src
        | Imm _ as src -> src
        | Var _ -> op
  in
  (* a redefinition of [dst] ends the copy into it and every copy from it *)
  let invalidate (dst : Instr.var) =
    Regs.set copies dst.vid varying;
    List.iter
      (fun k ->
        match Regs.get copies k with
        | Instr.Var v when v.vid = dst.vid -> Regs.set copies k varying
        | Instr.Var _ | Instr.Imm _ -> ())
      (Regs.get readers dst.vid);
    Regs.remove readers dst.vid
  in
  let record (dst : Instr.var) src =
    Regs.set copies dst.vid src;
    match src with
    | Instr.Var v -> Regs.push readers v.Instr.vid dst.vid
    | Instr.Imm _ -> ()
  in
  let prop (instr : Instr.t) : Instr.t =
    let instr = Instr.map_operands subst instr in
    (match Instr.def instr with
    | None -> ()
    | Some dst -> (
      invalidate dst;
      match instr with
      | Mov { src = Var v; _ } when v.vid = dst.vid -> ()
      | Mov { src; _ } -> record dst src
      | Bin _ | Mul _ | Div _ | Rem _ | Un _ | Select _ | Load _ | Store _ -> ()));
    instr
  in
  let instrs = map_same prop b.Block.instrs in
  with_body b instrs (Block.map_terminator_operands subst b.Block.term)

let copy_propagate cdfg = map_blocks (fun b -> copy_propagate_block b) cdfg

(* --- global (dataflow-backed) passes ----------------------------------- *)

(* Each global pass solves one {!Dataflow} analysis and re-runs the
   corresponding local rewrite seeded with the facts holding at block
   entry, so code straddling block boundaries optimises exactly like
   straight-line code.  A block the analysis proves unreachable
   ([Unreached] at entry) is seeded with nothing known: its facts are
   vacuous and seeding from them would be meaningless. *)

let global_const_propagate cdfg =
  let sol = Dataflow.Consts.solve (Cdfg.cfg cdfg) in
  mapi_blocks
    (fun i b -> const_fold_block ~seed:(Dataflow.seed sol.Dataflow.at_entry.(i)) b)
    cdfg

let global_copy_propagate cdfg =
  let sol = Dataflow.Copies.solve (Cdfg.cfg cdfg) in
  mapi_blocks
    (fun i b ->
      copy_propagate_block ~seed:(Dataflow.seed sol.Dataflow.at_entry.(i)) b)
    cdfg

let global_cse cdfg =
  let cfg = Cdfg.cfg cdfg in
  let tbl = Exprs.build cfg in
  let sol = Dataflow.Avail.solve tbl cfg in
  mapi_blocks
    (fun i (b : Block.t) ->
      match sol.Dataflow.at_entry.(i) with
      | Dataflow.Avail.All -> b (* unreachable: no facts to seed from *)
      | Dataflow.Avail.Known entry ->
        (* thread the facts over the original instructions; a pure
           instruction recomputing an expression available here becomes
           a move from the register still holding it *)
        let facts = Bitset.copy entry in
        let k = ref 0 in
        let rewrite (instr : Instr.t) =
          let st = Exprs.step tbl i !k in
          incr k;
          let out =
            if st.Exprs.expr < 0 then instr
            else
              match Instr.def instr with
              | Some dst -> (
                match Exprs.holder tbl st.Exprs.expr facts with
                | Some cached when not (Instr.var_equal cached dst) ->
                  Instr.Mov { dst; src = Var cached }
                | Some _ | None -> instr)
              | None -> instr
          in
          Exprs.apply tbl st facts;
          out
        in
        with_body b (map_same rewrite b.Block.instrs) b.Block.term)
    cdfg

(* --- dead-code elimination ------------------------------------------- *)

let read live = function
  | Instr.Var v -> Bitset.add live v.Instr.vid
  | Instr.Imm _ -> ()

let read_operands live (instr : Instr.t) =
  match instr with
  | Bin { a; b; _ } | Mul { a; b; _ } | Div { a; b; _ } | Rem { a; b; _ } ->
    read live a;
    read live b
  | Un { a; _ } -> read live a
  | Mov { src; _ } -> read live src
  | Select { cond; if_true; if_false; _ } ->
    read live cond;
    read live if_true;
    read live if_false
  | Load { index; _ } -> read live index
  | Store { index; value; _ } ->
    read live index;
    read live value

(* the block being swept, by position, and which of its instructions stay *)
type sweep = { mutable instrs : Instr.t array; mutable keep : Bytes.t }

let sweeps = Domain.DLS.new_key (fun () -> { instrs = [||]; keep = Bytes.empty })

let dead_code_eliminate cdfg =
  let live = (Dataflow.Liveness.solve (Cdfg.cfg cdfg)).Dataflow.at_exit in
  let sw = Domain.DLS.get sweeps in
  let eliminate i (b : Block.t) =
    match b.Block.instrs with
    | [] -> b
    | first :: _ ->
      let n = List.length b.Block.instrs in
      if Array.length sw.instrs < n then begin
        sw.instrs <- Array.make (max n (2 * Array.length sw.instrs)) first;
        sw.keep <- Bytes.create (Array.length sw.instrs)
      end;
      List.iteri (fun k instr -> sw.instrs.(k) <- instr) b.Block.instrs;
      (* walked last to first on a copy of the block's live-out set *)
      let live_now = Dataflow.Liveness.to_bitset live.(i) in
      (match b.Block.term with
      | Block.Branch { cond = op; _ } | Block.Return (Some op) -> read live_now op
      | Block.Jump _ | Block.Return None -> ());
      let dropped = ref 0 in
      for k = n - 1 downto 0 do
        let instr = sw.instrs.(k) in
        let keep =
          match instr with
          | Store _ -> true
          | Div { dst; _ } | Rem { dst; _ } ->
            (* may trap: never removed *)
            Bitset.remove live_now dst.vid;
            true
          | Bin { dst; _ } | Mul { dst; _ } | Un { dst; _ } | Mov { dst; _ }
          | Select { dst; _ } | Load { dst; _ } ->
            Bitset.mem live_now dst.vid
            && (Bitset.remove live_now dst.vid;
                true)
        in
        if keep then read_operands live_now instr else incr dropped;
        Bytes.set sw.keep k (if keep then '1' else '0')
      done;
      if !dropped = 0 then b
      else begin
        let kept = ref [] in
        for k = n - 1 downto 0 do
          if Bytes.get sw.keep k = '1' then kept := sw.instrs.(k) :: !kept
        done;
        { b with Block.instrs = !kept }
      end
  in
  mapi_blocks eliminate cdfg

(* --- control-flow clean-up --------------------------------------------- *)

let simplify_cfg_once cdfg =
  let cfg = Cdfg.cfg cdfg in
  let reachable = Cfg.reachable cfg in
  let cfg =
    if Array.for_all Fun.id reachable then cfg
    else
      Cfg.of_blocks
        (List.filteri (fun i _ -> reachable.(i)) (Array.to_list (Cfg.blocks cfg)))
  in
  let blocks = Array.copy (Cfg.blocks cfg) in
  let n = Array.length blocks in
  let retargeted = ref false in
  let set_term i term =
    blocks.(i) <- { (blocks.(i)) with Block.term };
    retargeted := true
  in
  (* collapse branches with identical arms *)
  for i = 0 to n - 1 do
    match blocks.(i).Block.term with
    | Block.Branch { if_true; if_false; _ } when if_true = if_false ->
      set_term i (Block.Jump if_true)
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
  if Hashtbl.length forward > 0 then
    for i = 0 to n - 1 do
      match blocks.(i).Block.term with
      | Block.Jump l ->
        let l' = resolve [] l in
        if not (String.equal l' l) then set_term i (Block.Jump l')
      | Block.Branch { cond; if_true; if_false } ->
        let t' = resolve [] if_true and f' = resolve [] if_false in
        if not (String.equal t' if_true && String.equal f' if_false) then
          set_term i (Block.Branch { cond; if_true = t'; if_false = f' })
      | Block.Return _ -> ()
    done;
  (* merge one block into its unique Jump successor per pass: a merge
     rewrites the surviving block's terminator, so predecessor sets must
     be recomputed before attempting another — the surrounding fixpoint
     drives convergence *)
  let cfg = if !retargeted then Cfg.of_blocks (Array.to_list blocks) else cfg in
  let removed = ref (-1) in
  (try
     for i = 0 to n - 1 do
       match blocks.(i).Block.term with
       | Block.Jump succ_label when succ_label <> blocks.(i).Block.label ->
         let j = Cfg.id_of_label cfg succ_label in
         if j <> Cfg.entry cfg && j <> i && Cfg.predecessors cfg j = [ i ] then begin
           let a = blocks.(i) and b = blocks.(j) in
           blocks.(i) <-
             { a with Block.instrs = a.Block.instrs @ b.Block.instrs;
               term = b.Block.term };
           removed := j;
           raise Exit
         end
       | Block.Jump _ | Block.Branch _ | Block.Return _ -> ()
     done
   with Exit -> ());
  rebuild cdfg
    (if !removed < 0 then blocks
     else
       Array.init (n - 1) (fun i ->
           if i < !removed then blocks.(i) else blocks.(i + 1)))

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
           && (not (Dataflow.Liveness.mem live_in_header dst.vid))
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
      let hoisted_from = Array.make (Array.length blocks) false in
      Hashtbl.iter (fun (b, _) () -> hoisted_from.(b) <- true) to_hoist;
      let moved = ref [] in
      let blocks =
        Array.mapi
          (fun b (blk : Block.t) ->
            if not hoisted_from.(b) then blk
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
        cfg := Cfg.with_same_edges !cfg updated;
        live := None)
    loops;
  (* an outer loop can hoist back out of a preheader what an inner loop
     put there: such a block is the input's again *)
  let old = Cfg.blocks (Cdfg.cfg cdfg) in
  rebuild cdfg
    (Array.mapi (fun i b -> if b != old.(i) && b = old.(i) then old.(i) else b) !blocks)

(* --- fixpoint --------------------------------------------------------- *)

let simplify ?(max_rounds = 8) ?verify cdfg =
  let step = checked ?verify in
  let rec go round c =
    if round >= max_rounds then c
    else
      let c' =
        step "dead_code_eliminate" dead_code_eliminate
          (step "common_subexpressions" common_subexpressions
             (step "copy_propagate" copy_propagate
                (step "algebraic_simplify" algebraic_simplify
                   (step "const_fold" const_fold c))))
      in
      if c' == c then c else go (round + 1) c'
  in
  go 0 cdfg

(* one global round: propagate facts across block boundaries, then let
   the local fixpoint and the CFG clean-up collect the now-dead code and
   the arms of statically decided branches *)
let global_round ?verify c =
  let step = checked ?verify in
  step "global_const_propagate" global_const_propagate c
  |> step "global_copy_propagate" global_copy_propagate
  |> step "global_cse" global_cse
  |> simplify ?verify
  |> step "simplify_cfg" simplify_cfg

let optimize ?verify cdfg =
  (* the input is observed unconditionally: no pass has checked it yet *)
  span "input" (fun () -> observe ?verify "input" ~before:cdfg cdfg);
  let step = checked ?verify in
  simplify ?verify cdfg
  |> step "simplify_cfg" simplify_cfg
  |> global_round ?verify
  |> step "loop_invariant_motion" loop_invariant_motion
  |> global_round ?verify
