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

(* --- constant lattice ---------------------------------------------------- *)

module Consts = struct
  type consts = Unreached | Env of int Int_map.t
  type t = consts

  let name = "consts"
  let direction = Forward
  let init = Unreached
  let boundary = Env Int_map.empty

  let join a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Env m1, Env m2 ->
      Env
        (Int_map.merge
           (fun _ a b ->
             match (a, b) with
             | Some x, Some y when x = y -> Some x
             | _ -> None)
           m1 m2)

  let equal a b =
    match (a, b) with
    | Unreached, Unreached -> true
    | Env m1, Env m2 -> Int_map.equal ( = ) m1 m2
    | Unreached, Env _ | Env _, Unreached -> false

  let value m = function
    | Instr.Imm n -> Some n
    | Instr.Var v -> Int_map.find_opt v.Instr.vid m

  (* the folding rule of {!Instr.eval}, which const folding shares *)
  let transfer _ instr t =
    match (t, Instr.def instr) with
    | Unreached, _ -> Unreached
    | Env _, None -> t
    | Env m, Some d -> (
      match Instr.eval (value m) instr with
      | Some n -> Env (Int_map.add d.Instr.vid n m)
      | None -> Env (Int_map.remove d.Instr.vid m))

  let transfer_term _ _ t = t
  let transfer_block = None

  (* conditional constant propagation: the not-taken side of a branch
     whose condition is a known constant contributes nothing *)
  let edge =
    Some
      (fun (pred : Block.t) target v ->
        match v with
        | Unreached -> Unreached
        | Env m -> (
          match pred.Block.term with
          | Block.Branch { cond; if_true; if_false } when if_true <> if_false
            -> (
            match value m cond with
            | Some c ->
              let taken = if c <> 0 then if_true else if_false in
              if target = taken then v else Unreached
            | None -> v)
          | Block.Branch _ | Block.Jump _ | Block.Return _ -> v))

  let widen = None

  let find vid = function
    | Unreached -> None
    | Env m -> Int_map.find_opt vid m
end

(* --- copy lattice -------------------------------------------------------- *)

module Copies = struct
  type copies = All | Env of Instr.operand Int_map.t
  type t = copies

  let name = "copies"
  let direction = Forward
  let init = All
  let boundary = Env Int_map.empty

  let operand_equal a b =
    match (a, b) with
    | Instr.Var v1, Instr.Var v2 -> Instr.var_equal v1 v2
    | Instr.Imm n1, Instr.Imm n2 -> n1 = n2
    | (Instr.Var _ | Instr.Imm _), (Instr.Var _ | Instr.Imm _) -> false

  let join a b =
    match (a, b) with
    | All, x | x, All -> x
    | Env m1, Env m2 ->
      Env
        (Int_map.merge
           (fun _ a b ->
             match (a, b) with
             | Some s1, Some s2 when operand_equal s1 s2 -> Some s1
             | _ -> None)
           m1 m2)

  let equal a b =
    match (a, b) with
    | All, All -> true
    | Env m1, Env m2 -> Int_map.equal operand_equal m1 m2
    | All, Env _ | Env _, All -> false

  (* a redefinition of [d] kills both the copy *of* d and every copy
     *from* d *)
  let kill m (d : Instr.var) =
    Int_map.filter
      (fun vid src ->
        vid <> d.Instr.vid
        &&
        match src with
        | Instr.Var v -> v.Instr.vid <> d.Instr.vid
        | Instr.Imm _ -> true)
      m

  let transfer _ instr t =
    match t with
    | All -> All
    | Env m ->
      Env
        (match instr with
        | Instr.Mov { dst; src } -> (
          let m = kill m dst in
          match src with
          | Instr.Var v when v.Instr.vid = dst.Instr.vid -> m
          | src -> Int_map.add dst.Instr.vid src m)
        | instr -> (
          match Instr.def instr with Some d -> kill m d | None -> m))

  let transfer_term _ _ t = t
  let transfer_block = None
  let edge = None
  let widen = None

  let find vid = function
    | All -> None
    | Env m -> Int_map.find_opt vid m
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

(* --- liveness ------------------------------------------------------------ *)

module Liveness = struct
  type live = Bitset.t

  (* one past the largest register id the CFG mentions *)
  let universe cfg =
    let top = ref (-1) in
    Array.iter
      (Block.iter_vars (fun v -> if v.Instr.vid > !top then top := v.Instr.vid))
      (Cfg.blocks cfg);
    !top + 1

  (* each block's instructions and terminator folded into one gen/kill
     pair, in = (out \ kill) ∪ gen: gen holds the reads no earlier def in
     the block shadows (the terminator's included), kill every def *)
  let summarise n cfg =
    Array.map
      (fun (b : Block.t) ->
        let gen = Bitset.create n and kill = Bitset.create n in
        let read (v : Instr.var) =
          if not (Bitset.mem kill v.Instr.vid) then Bitset.add gen v.Instr.vid
        in
        List.iter
          (fun instr ->
            List.iter read (Instr.used_vars instr);
            Option.iter
              (fun (d : Instr.var) -> Bitset.add kill d.Instr.vid)
              (Instr.def instr))
          b.Block.instrs;
        List.iter read (Block.terminator_uses b);
        (gen, kill))
      (Cfg.blocks cfg)

  let with_read op live =
    match op with
    | Instr.Var v ->
      let s = Bitset.copy live in
      Bitset.add s v.Instr.vid;
      s
    | Instr.Imm _ -> live

  let analysis cfg : (module ANALYSIS with type t = live) =
    let n = universe cfg in
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

      (* forced inside the solve, so its span covers the summaries *)
      let summaries = lazy (summarise n cfg)

      let transfer_block =
        Some
          (fun i live ->
            let gen, kill = (Lazy.force summaries).(i) in
            let s = Bitset.copy live in
            Bitset.diff_into s kill;
            Bitset.union_into s gen;
            s)

      let edge = None
      let widen = None
    end)

  (* the universe scan, too, inside the span *)
  let solve cfg = observed "liveness" (fun () -> solve_raw (analysis cfg) cfg)
end
