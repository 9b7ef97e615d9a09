type direction = Forward | Backward

type pos = { block : int; index : int }

module type ANALYSIS = sig
  type t

  val name : string
  val direction : direction
  val init : t
  val boundary : t
  val join : t -> t -> t
  val equal : t -> t -> bool
  val transfer : pos -> Instr.t -> t -> t
  val transfer_term : int -> Block.terminator -> t -> t
  val transfer_block : (int -> t -> t) option
  val edge : (Block.t -> Block.label -> t -> t) option
  val widen : (t -> t -> t) option
end

let widen_threshold = 4

type 'a solution = {
  at_entry : 'a array;
  at_exit : 'a array;
  iterations : int;
}

(* --- block transfer, shared by the solver and the replays --------------- *)

(* Thread [A]'s instruction transfer through block [i] in analysis order
   (first to last forward, last to first backward) from [v]; [visit]
   sees each instruction with the fact on its input side. *)
let through_instrs (type a) (module A : ANALYSIS with type t = a) ?visit cfg
    i (v : a) =
  let step k instr acc =
    Option.iter (fun f -> f instr acc) visit;
    A.transfer { block = i; index = k } instr acc
  in
  let instrs = (Cfg.block cfg i).Block.instrs in
  match A.direction with
  | Forward ->
    let acc = ref v in
    List.iteri (fun k instr -> acc := step k instr !acc) instrs;
    !acc
  | Backward ->
    let instrs = Array.of_list instrs in
    let acc = ref v in
    for k = Array.length instrs - 1 downto 0 do
      acc := step k instrs.(k) !acc
    done;
    !acc

(* the fact on block [i]'s output side from the one on its input side *)
let through_block (type a) (module A : ANALYSIS with type t = a) cfg i
    (v : a) =
  match A.transfer_block with
  | Some f -> f i v
  | None -> (
    let term = (Cfg.block cfg i).Block.term in
    match A.direction with
    | Forward -> A.transfer_term i term (through_instrs (module A) cfg i v)
    | Backward -> through_instrs (module A) cfg i (A.transfer_term i term v))

(* What the worklist solve and a refining sweep share over one pair of
   fact arrays: the processing order (reverse postorder forward,
   postorder backward; blocks unreachable from the entry are absent),
   the arrays in analysis order, and the join of the facts flowing into
   a block along analysis-order edges. *)
type 'a sweep = {
  order : int list;
  stored_in : 'a array;
  stored_out : 'a array;
  input_of : int -> 'a;
}

let sweep (type a) (module A : ANALYSIS with type t = a) cfg
    ~(at_entry : a array) ~(at_exit : a array) =
  let refine_edge pred_id target_id v =
    match A.edge with
    | None -> v
    | Some f ->
      f (Cfg.block cfg pred_id) (Cfg.block cfg target_id).Block.label v
  in
  match A.direction with
  | Forward ->
    let input_of i =
      let base = if i = Cfg.entry cfg then A.boundary else A.init in
      List.fold_left
        (fun acc p -> A.join acc (refine_edge p i at_exit.(p)))
        base (Cfg.predecessors cfg i)
    in
    { order = Cfg.reverse_postorder cfg; stored_in = at_entry;
      stored_out = at_exit; input_of }
  | Backward ->
    let input_of i =
      match Cfg.successors cfg i with
      | [] -> A.boundary (* Return terminator *)
      | succs ->
        List.fold_left
          (fun acc s -> A.join acc (refine_edge i s at_entry.(s)))
          A.init succs
    in
    { order = List.rev (Cfg.reverse_postorder cfg); stored_in = at_exit;
      stored_out = at_entry; input_of }

(* --- the worklist solver ------------------------------------------------ *)

let solve_raw (type a) (module A : ANALYSIS with type t = a) cfg : a solution =
  let n = Cfg.block_count cfg in
  let at_entry = Array.make n A.init in
  let at_exit = Array.make n A.init in
  let { order; stored_in; stored_out; input_of } =
    sweep (module A) cfg ~at_entry ~at_exit
  in
  (* the worklist: one pending flag per priority (a block's place in
     [order]) and a low-water mark below which no flag is set, so the
     lowest pending priority is always the next block visited *)
  let block_at = Array.of_list order in
  let m = Array.length block_at in
  let priority = Array.make n (-1) in
  Array.iteri (fun k i -> priority.(i) <- k) block_at;
  let pending = Array.make m true in
  let low = ref 0 in
  let push i =
    let k = priority.(i) in
    if k >= 0 && not pending.(k) then begin
      pending.(k) <- true;
      if k < !low then low := k
    end
  in
  let visits = Array.make n 0 in
  let iterations = ref 0 in
  let dependents i =
    match A.direction with
    | Forward -> Cfg.successors cfg i
    | Backward -> Cfg.predecessors cfg i
  in
  while !low < m do
    let k = !low in
    if not pending.(k) then incr low
    else begin
      pending.(k) <- false;
      let i = block_at.(k) in
      let input = input_of i in
      let input =
        match A.widen with
        | Some w when visits.(i) >= widen_threshold -> w stored_in.(i) input
        | Some _ | None -> input
      in
      let first = visits.(i) = 0 in
      visits.(i) <- visits.(i) + 1;
      (* block-level cache: an unchanged input needs no re-transfer *)
      if first || not (A.equal input stored_in.(i)) then begin
        incr iterations;
        stored_in.(i) <- input;
        let out = through_block (module A) cfg i input in
        let out_changed = not (A.equal out stored_out.(i)) in
        stored_out.(i) <- out;
        if first || out_changed then List.iter push (dependents i)
      end
    end
  done;
  { at_entry; at_exit; iterations = !iterations }

(* [f ()] under the [dataflow.<name>] span, publishing its iterations *)
let observed name f =
  if not (Hypar_obs.Sink.enabled ()) then f ()
  else
    Hypar_obs.Span.with_ ~cat:"dataflow" ("dataflow." ^ name) (fun () ->
        let sol = f () in
        Hypar_obs.Counter.incr
          ("dataflow." ^ name ^ ".iterations")
          ~by:sol.iterations;
        sol)

let solve (type a) (module A : ANALYSIS with type t = a) cfg : a solution =
  observed A.name (fun () -> solve_raw (module A) cfg)

(* One decreasing (narrowing) sweep.  A widened fixpoint sits above the
   least fixpoint; re-applying the (monotone) transfer functions from it
   descends back towards the least fixpoint while staying above it, so
   stopping after any number of sweeps is sound.  Edge refinement runs
   again too — this is what recovers branch-derived bounds that widening
   blew away. *)
let refine (type a) (module A : ANALYSIS with type t = a) cfg
    (sol : a solution) : a solution =
  let at_entry = Array.copy sol.at_entry in
  let at_exit = Array.copy sol.at_exit in
  let { order; stored_in; stored_out; input_of } =
    sweep (module A) cfg ~at_entry ~at_exit
  in
  List.iter
    (fun i ->
      let input = input_of i in
      stored_in.(i) <- input;
      stored_out.(i) <- through_block (module A) cfg i input)
    order;
  { at_entry; at_exit; iterations = sol.iterations }

let instr_facts (type a) (module A : ANALYSIS with type t = a) cfg
    (sol : a solution) i =
  let facts = ref [] in
  let visit instr v = facts := (instr, v) :: !facts in
  match A.direction with
  | Forward ->
    (* fact immediately before each instruction *)
    ignore (through_instrs (module A) ~visit cfg i sol.at_entry.(i));
    List.rev !facts
  | Backward ->
    (* fact immediately after each instruction; visited last to first, so
       the list comes out in program order *)
    let term = (Cfg.block cfg i).Block.term in
    ignore
      (through_instrs (module A) ~visit cfg i
         (A.transfer_term i term sol.at_exit.(i)));
    !facts

let term_fact (type a) (module A : ANALYSIS with type t = a) cfg
    (sol : a solution) i =
  match A.direction with
  | Forward -> through_instrs (module A) cfg i sol.at_entry.(i)
  | Backward ->
    A.transfer_term i (Cfg.block cfg i).Block.term sol.at_exit.(i)

(* --- shared containers -------------------------------------------------- *)

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

(* --- available expressions ---------------------------------------------- *)

module Avail = struct
  type avail = All | Known of Bitset.t

  let join a b =
    match (a, b) with
    | All, x | x, All -> x
    | Known s1, Known s2 -> Known (Bitset.inter s1 s2)

  let equal a b =
    match (a, b) with
    | All, All -> true
    | Known s1, Known s2 -> Bitset.equal s1 s2
    | All, Known _ | Known _, All -> false

  (* each block's instructions folded into one gen/kill pair:
     out = (in \ kill) ∪ gen *)
  let summarise tbl cfg =
    Array.init (Cfg.block_count cfg) (fun i ->
        let n = Exprs.fact_count tbl in
        let gen = Bitset.create n and kill = Bitset.create n in
        List.iteri
          (fun k _ ->
            let st = Exprs.step tbl i k in
            Bitset.union_into kill st.Exprs.kill;
            if st.Exprs.gen >= 0 then
              List.iter (Bitset.add kill) (Exprs.expr_facts tbl st.Exprs.expr);
            Exprs.apply tbl st gen)
          (Cfg.block cfg i).Block.instrs;
        (gen, kill))

  let analysis tbl cfg : (module ANALYSIS with type t = avail) =
    (module struct
      type t = avail

      let name = "avail"
      let direction = Forward
      let init = All
      let boundary = Known (Bitset.create (Exprs.fact_count tbl))
      let join = join
      let equal = equal

      let transfer p _ = function
        | All -> All
        | Known s ->
          let s = Bitset.copy s in
          Exprs.apply tbl (Exprs.step tbl p.block p.index) s;
          Known s

      let transfer_term _ _ t = t

      (* forced inside the solve, so its span covers the summaries *)
      let summaries = lazy (summarise tbl cfg)

      let transfer_block =
        Some
          (fun i -> function
            | All -> All
            | Known s ->
              let gen, kill = (Lazy.force summaries).(i) in
              let s = Bitset.copy s in
              Bitset.diff_into s kill;
              Bitset.union_into s gen;
              Known s)

      let edge = None
      let widen = None
    end)

  let solve tbl cfg = solve (analysis tbl cfg) cfg

  let find tbl e = function
    | All -> None
    | Known s -> Exprs.holder tbl e s
end

(* --- liveness ------------------------------------------------------------ *)

(* [f] on each register [instr] reads, without building a list *)
let iter_reads f instr =
  ignore
    (Instr.map_operands
       (fun op ->
         (match op with Instr.Var v -> f v | Instr.Imm _ -> ());
         op)
       instr)

(* the largest register id block [b] mentions, or -1 *)
let block_top (b : Block.t) =
  let top = ref (-1) in
  let see (v : Instr.var) = if v.Instr.vid > !top then top := v.vid in
  List.iter
    (fun instr ->
      Option.iter see (Instr.def instr);
      iter_reads see instr)
    b.Block.instrs;
  List.iter see (Block.terminator_uses b);
  !top

module Liveness = struct
  type live = Bitset.t

  let mem = Bitset.mem
  let iter = Bitset.iter
  let cardinal = Bitset.cardinal
  let to_bitset = Bitset.copy

  (* block [b]'s instructions and terminator folded into one gen/kill
     pair over [n] ids, in = (out \ kill) ∪ gen: gen holds the reads no
     earlier def in the block shadows (the terminator's included), kill
     every def *)
  let summarise n (b : Block.t) =
    let gen = Bitset.create n and kill = Bitset.create n in
    let read (v : Instr.var) =
      if not (Bitset.mem kill v.Instr.vid) then Bitset.add gen v.Instr.vid
    in
    List.iter
      (fun instr ->
        iter_reads read instr;
        Option.iter
          (fun (d : Instr.var) -> Bitset.add kill d.Instr.vid)
          (Instr.def instr))
      b.Block.instrs;
    List.iter read (Block.terminator_uses b);
    (gen, kill)

  let with_read op live =
    match op with
    | Instr.Var v ->
      let s = Bitset.copy live in
      Bitset.add s v.Instr.vid;
      s
    | Instr.Imm _ -> live

  (* the lattice over [n] ids whose blocks transfer through [summaries] *)
  let lattice n summaries : (module ANALYSIS with type t = live) =
    (module struct
      type t = live

      let name = "liveness"
      let direction = Backward
      let init = Bitset.create n
      let boundary = init

      (* facts are never written after they are made, so the solver's
         fold over successors, which starts from [init], can share the
         first one *)
      let join a b = if a == init then b else Bitset.union a b
      let equal = Bitset.equal

      (* live-before = uses ∪ (live-after \ def) *)
      let transfer _ instr live =
        let s = Bitset.copy live in
        Option.iter
          (fun (d : Instr.var) -> Bitset.remove s d.Instr.vid)
          (Instr.def instr);
        List.iter
          (fun (v : Instr.var) -> Bitset.add s v.Instr.vid)
          (Instr.used_vars instr);
        s

      let transfer_term _ term live =
        match term with
        | Block.Jump _ | Block.Return None -> live
        | Block.Branch { cond = op; _ } | Block.Return (Some op) ->
          with_read op live

      let transfer_block =
        Some
          (fun i live ->
            let gen, kill = summaries.(i) in
            let s = Bitset.copy live in
            Bitset.diff_into s kill;
            Bitset.union_into s gen;
            s)

      let edge = None
      let widen = None
    end)

  (* This domain's last summarised CFG: its blocks, each one's largest
     register id and summary over the universe [n], and its solution once
     one was solved. *)
  type memo = {
    blocks : Block.t array;
    tops : int array;
    n : int;
    summaries : (Bitset.t * Bitset.t) array;
    mutable sol : live solution option;
  }

  let last =
    Domain.DLS.new_key (fun () ->
        { blocks = [||]; tops = [||]; n = 0; summaries = [||]; sol = None })

  let count name by =
    if Hypar_obs.Sink.enabled () then
      Hypar_obs.Counter.incr ("dataflow.liveness." ^ name) ~by

  let shares m blocks =
    Array.length m.blocks = Array.length blocks
    && Array.for_all2 ( == ) m.blocks blocks

  (* [cfg]'s memo: the last one when it has all of [cfg]'s blocks, else
     one keeping the top of each block physically the last one's at the
     same index, and its summary while the universe stays the same *)
  let memo cfg =
    let blocks = Cfg.blocks cfg and m = Domain.DLS.get last in
    if shares m blocks then m
    else begin
      let kept i = i < Array.length m.blocks && m.blocks.(i) == blocks.(i) in
      let tops =
        Array.mapi (fun i b -> if kept i then m.tops.(i) else block_top b) blocks
      in
      let n = 1 + Array.fold_left max (-1) tops and reused = ref 0 in
      let summaries =
        Array.mapi
          (fun i b ->
            if kept i && m.n = n then (incr reused; m.summaries.(i)) else summarise n b)
          blocks
      in
      if !reused > 0 then count "summaries_reused" !reused;
      let m = { blocks; tops; n; summaries; sol = None } in
      Domain.DLS.set last m;
      m
    end

  let analysis cfg =
    let m = memo cfg in
    lattice m.n m.summaries

  let solve cfg =
    match Domain.DLS.get last with
    | { sol = Some sol; _ } as m when shares m (Cfg.blocks cfg) ->
      count "reused" 1;
      sol
    | _ ->
      observed "liveness" (fun () ->
          let m = memo cfg in
          let sol = solve_raw (lattice m.n m.summaries) cfg in
          m.sol <- Some sol;
          sol)
end

(* --- dense forward environments ------------------------------------------ *)

let varying = Instr.Var { Instr.vname = ""; vid = -1; vwidth = 0 }

(* A fact of {!Consts} or {!Copies}: what each register holds, an operand
   or [varying], by slot.  [slot] numbers first the registers whose facts
   cross a block boundary (read in a block before any def there), then
   the rest: a boundary fact's [vals] covers the former, and a replay
   through a block extends it.  [cond] is what the branch condition of
   the block a fact leaves holds, which the constant lattice's edge rule
   reads. *)
type env = { slot : int array; vals : Instr.operand array; cond : Instr.operand }
type dense = Unreached | Env of env

(* [cfg]'s facts of nothing, and its liveness summaries *)
let env_of cfg =
  let m = Liveness.memo cfg in
  let crossing = Bitset.create m.n in
  Array.iter (fun (gen, _) -> Bitset.union_into crossing gen) m.summaries;
  let slot = Array.make m.n (-1) and count = ref 0 in
  let number vid =
    slot.(vid) <- !count;
    incr count
  in
  Bitset.iter number crossing;
  let vals = Array.make !count varying in
  Array.iteri (fun vid s -> if s < 0 then number vid) slot;
  ({ slot; vals; cond = varying }, m.summaries)

let lookup e vid =
  if vid < Array.length e.slot && e.slot.(vid) < Array.length e.vals then
    e.vals.(e.slot.(vid))
  else varying

let seed = function Unreached -> fun _ -> varying | Env e -> lookup e

(* for a replay: [e] with register [vid] holding [x] *)
let assign e vid x =
  let s = e.slot.(vid) in
  let grown = Array.make (max 0 (s + 1 - Array.length e.vals)) varying in
  let vals = Array.append e.vals grown in
  vals.(s) <- x;
  { e with vals }

let same a b =
  a == b
  ||
  match (a, b) with
  | Instr.Var v1, Instr.Var v2 -> Instr.var_equal v1 v2
  | Instr.Imm n1, Instr.Imm n2 -> n1 = n2
  | (Instr.Var _ | Instr.Imm _), (Instr.Var _ | Instr.Imm _) -> false

(* the first slot at or after [s] where [a] and [b] differ, or -1 *)
let rec differs a b s =
  if a == b || s = Array.length a then -1
  else if same a.(s) b.(s) then differs a b (s + 1)
  else s

(* The lattice over the slots of [empty]: [Unreached] is neutral in the
   join (unvisited), and a slot keeps a fact where both sides agree.
   [replay e instr] is the per-instruction transfer and [through i e] the
   solver's transfer of block [i]. *)
let dense_analysis name empty ~replay ~through ~edge :
    (module ANALYSIS with type t = dense) =
  (module struct
    type t = dense

    let name = name
    let direction = Forward
    let init = Unreached
    let boundary = Env empty

    let join a b =
      match (a, b) with
      | Unreached, x | x, Unreached -> x
      | Env e, Env f -> (
        match differs e.vals f.vals 0 with
        | -1 -> a
        | s0 ->
          let vals = Array.copy e.vals in
          for s = s0 to Array.length vals - 1 do
            if not (same vals.(s) f.vals.(s)) then vals.(s) <- varying
          done;
          Env { e with vals })

    let equal a b =
      match (a, b) with
      | Unreached, Unreached -> true
      | Env e, Env f -> differs e.vals f.vals 0 < 0 && same e.cond f.cond
      | Unreached, Env _ | Env _, Unreached -> false

    let transfer _ instr = function
      | Unreached -> Unreached
      | Env e -> Env (replay e instr)

    let transfer_term _ _ t = t

    let transfer_block =
      Some (fun i -> function Unreached -> Unreached | Env e -> Env (through i e))

    let edge = edge
    let widen = None
  end)

(* --- constant lattice ---------------------------------------------------- *)

module Consts = struct
  type consts = dense = Unreached | Env of env

  (* Both transfers fold through {!Instr.eval}, the rule const folding
     shares. *)
  let replay e instr =
    match Instr.def instr with
    | None -> e
    | Some d ->
      let value = function
        | Instr.Imm n -> Some n
        | Instr.Var v -> (
          match lookup e v.Instr.vid with Instr.Imm n -> Some n | Instr.Var _ -> None)
      in
      assign e d.Instr.vid
        (match Instr.eval value instr with Some n -> Instr.Imm n | None -> varying)

  (* conditional constant propagation: the not-taken side of a branch
     whose condition is a known constant contributes nothing *)
  let edge (pred : Block.t) target = function
    | Unreached -> Unreached
    | Env e as v -> (
      match pred.Block.term with
      | Block.Branch { cond; if_true; if_false } when if_true <> if_false -> (
        match match cond with Instr.Var _ -> e.cond | Instr.Imm _ -> cond with
        | Instr.Imm c ->
          if String.equal target (if c <> 0 then if_true else if_false) then v
          else Unreached
        | Instr.Var _ -> v)
      | Block.Branch _ | Block.Jump _ | Block.Return _ -> v)

  (* the known values of the registers without a boundary slot, while a
     block is transferred *)
  let locals : int Regs.key = Regs.per_domain 0

  let analysis cfg =
    let empty, _ = env_of cfg in
    (* the slots in a copy, the other registers in a scratch map *)
    let through i e =
      let b = Cfg.block cfg i and vals = Array.copy e.vals in
      let local = Regs.fresh locals in
      let g = Array.length vals in
      let value = function
        | Instr.Imm n -> Some n
        | Instr.Var v -> (
          let s = e.slot.(v.Instr.vid) in
          if s >= g then
            if Regs.mem local v.vid then Some (Regs.get local v.vid) else None
          else match vals.(s) with Instr.Imm n -> Some n | Instr.Var _ -> None)
      in
      List.iter
        (fun instr ->
          match Instr.def instr with
          | None -> ()
          | Some d -> (
            let s = e.slot.(d.Instr.vid) in
            match Instr.eval value instr with
            | Some n -> if s < g then vals.(s) <- Instr.Imm n else Regs.set local d.vid n
            | None -> if s < g then vals.(s) <- varying else Regs.remove local d.vid))
        b.Block.instrs;
      let cond =
        match b.Block.term with
        | Block.Branch { cond; _ } -> (
          match value cond with Some c -> Instr.Imm c | None -> varying)
        | Block.Jump _ | Block.Return _ -> varying
      in
      { e with vals; cond }
    in
    dense_analysis "consts" empty ~replay ~through ~edge:(Some edge)

  (* the slots, too, found inside the span *)
  let solve cfg = observed "consts" (fun () -> solve_raw (analysis cfg) cfg)

  let find vid t =
    match seed t vid with Instr.Imm n -> Some n | Instr.Var _ -> None
end

(* --- copy lattice -------------------------------------------------------- *)

module Copies = struct
  (* a redefinition of [d] ends the copy into it and every copy from it *)
  let from (d : Instr.var) = function
    | Instr.Var v -> v.Instr.vid = d.Instr.vid
    | Instr.Imm _ -> false

  (* the copy [instr], which defines [d], makes *)
  let copy_of instr (d : Instr.var) =
    match instr with
    | Instr.Mov { src; _ } when not (from d src) -> src
    | Instr.Mov _ | Bin _ | Mul _ | Div _ | Rem _ | Un _ | Select _ | Load _
    | Store _ ->
      varying

  let replay e instr =
    match Instr.def instr with
    | None -> e
    | Some d ->
      let vals = Array.map (fun x -> if from d x then varying else x) e.vals in
      assign { e with vals } d.Instr.vid (copy_of instr d)

  (* per boundary slot block [b] defines, the copy it holds at the exit *)
  let gen e (b : Block.t) =
    List.fold_left
      (fun gen instr ->
        match Instr.def instr with
        | None -> gen
        | Some d ->
          let s = e.slot.(d.Instr.vid) in
          let gen =
            List.filter_map
              (fun (s', x) ->
                if s' = s then None else Some (s', if from d x then varying else x))
              gen
          in
          if s < Array.length e.vals then (s, copy_of instr d) :: gen else gen)
      [] b.Block.instrs

  (* each block as one gen/kill pair: a def (in the liveness kill set)
     ends every copy from it, then the block's own copies hold *)
  let analysis cfg =
    let empty, summaries = env_of cfg in
    let gens = Array.map (gen empty) (Cfg.blocks cfg) in
    let through i e =
      let _, kill = summaries.(i) and vals = Array.copy e.vals in
      for s = 0 to Array.length vals - 1 do
        match vals.(s) with
        | Instr.Var v as x when x != varying && Bitset.mem kill v.Instr.vid ->
          vals.(s) <- varying
        | Instr.Var _ | Instr.Imm _ -> ()
      done;
      List.iter (fun (s, x) -> vals.(s) <- x) gens.(i);
      { e with vals }
    in
    dense_analysis "copies" empty ~replay ~through ~edge:None

  let solve cfg = observed "copies" (fun () -> solve_raw (analysis cfg) cfg)

  let find vid t =
    let x = seed t vid in
    if x == varying then None else Some x
end

(* --- definite assignment ------------------------------------------------- *)

module Assigned = struct
  type assigned = All | Known of Int_set.t
  type t = assigned

  let name = "assigned"
  let direction = Forward
  let init = All
  let boundary = Known Int_set.empty

  let join a b =
    match (a, b) with
    | All, x | x, All -> x
    | Known s1, Known s2 -> Known (Int_set.inter s1 s2)

  let equal a b =
    match (a, b) with
    | All, All -> true
    | Known s1, Known s2 -> Int_set.equal s1 s2
    | All, Known _ | Known _, All -> false

  let transfer _ instr t =
    match t with
    | All -> All
    | Known s -> (
      match Instr.def instr with
      | Some d -> Known (Int_set.add d.Instr.vid s)
      | None -> t)

  let transfer_term _ _ t = t
  let transfer_block = None
  let edge = None
  let widen = None

  let mem vid = function All -> true | Known s -> Int_set.mem vid s
end

