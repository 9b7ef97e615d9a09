module Ir = Hypar_ir
module Dataflow = Ir.Dataflow
module Int_map = Dataflow.Int_map

type code =
  | Use_before_def
  | Dead_store
  | Unreachable_block
  | Constant_branch
  | Possible_out_of_bounds
  | Possible_div_by_zero
  | Unhoisted_invariant_load
  | Write_only_variable

type finding = { code : code; block : int; index : int; message : string }

let kind =
  {
    Diagnostics.codes =
      [
        (Use_before_def, "A001", "use-before-def");
        (Dead_store, "A002", "dead-store");
        (Unreachable_block, "A003", "unreachable-block");
        (Constant_branch, "A004", "constant-branch");
        (Possible_out_of_bounds, "A005", "possible-out-of-bounds");
        (Possible_div_by_zero, "A006", "possible-div-by-zero");
        (Unhoisted_invariant_load, "A007", "unhoisted-invariant-load");
        (Write_only_variable, "A008", "write-only-variable");
      ];
    severity = "note";
    key = "findings";
    code = (fun f -> f.code);
    message = (fun f -> f.message);
    position =
      (fun f ->
        if f.index < 0 then Printf.sprintf "BB%d.term" f.block
        else Printf.sprintf "BB%d.%d" f.block f.index);
    fields = (fun f -> [ ("block", f.block); ("index", f.index) ]);
  }

let finding code block index fmt =
  Format.kasprintf (fun message -> { code; block; index; message }) fmt

let pp_var = Ir.Instr.pp_var

(* --- the interval lattice ----------------------------------------------- *)

(* Register intervals as a {!Dataflow} analysis: absent registers default
   to their declared-width range, branch edges narrow the operands of the
   branch condition, and loop growth is widened to {!Range.top}'s bounds
   after {!Dataflow.widen_threshold} visits.

   Widening is {e with thresholds}: a moving bound jumps to the nearest
   enclosing program constant (comparison immediates and array sizes,
   [±1]) instead of straight to {!Range.top}'s bound.  A loop counter
   guarded by [i < 56] climbs [0,1], [0,2], … until the threshold kicks
   in and lands it on [0,55] — where the branch constraint holds it —
   while a genuine accumulator burns through the finite ladder and tops
   out, keeping every ascending chain bounded. *)
type ienv =
  | Iunreached
  | Ienv of (Ir.Instr.var * Range.interval) Int_map.t

(* Array contents are flow-insensitive: a [const] array starts at its
   initialiser, any other at its full element width (arrays are the
   program's input surface).  A store does not truncate to the element
   width, so {!iter_intervals} joins every stored value in as well. *)
let array_contents cdfg =
  let tbl : (string, Range.interval) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (d : Ir.Cdfg.array_decl) ->
      Hashtbl.replace tbl d.aname
        (match (d.is_const, d.init) with
        | true, Some init ->
          Array.fold_left
            (fun acc v -> Range.join acc (Range.const v))
            (Range.const init.(0)) init
        | _ -> Range.width_range d.elem_width))
    (Ir.Cdfg.arrays cdfg);
  tbl

let default_iv (v : Ir.Instr.var) = Range.width_range v.Ir.Instr.vwidth

let read_iv m = function
  | Ir.Instr.Imm k -> Range.const k
  | Ir.Instr.Var v -> (
    match Int_map.find_opt v.Ir.Instr.vid m with
    | Some (_, r) -> r
    | None -> default_iv v)

let meet a b =
  let lo = max a.Range.lo b.Range.lo and hi = min a.Range.hi b.Range.hi in
  if lo > hi then None else Some { Range.lo; hi }

(* Narrow the intervals of [x cmp y] being [true].  Returns [None] when
   the constraint is unsatisfiable (the edge is infeasible). *)
let constrain op x y m =
  let ix = read_iv m x and iy = read_iv m y in
  let bound_x, bound_y =
    match (op : Ir.Types.alu_op) with
    | Ir.Types.Lt ->
      ( Some { ix with Range.hi = min ix.Range.hi (iy.Range.hi - 1) },
        Some { iy with Range.lo = max iy.Range.lo (ix.Range.lo + 1) } )
    | Ir.Types.Le ->
      ( Some { ix with Range.hi = min ix.Range.hi iy.Range.hi },
        Some { iy with Range.lo = max iy.Range.lo ix.Range.lo } )
    | Ir.Types.Gt ->
      ( Some { ix with Range.lo = max ix.Range.lo (iy.Range.lo + 1) },
        Some { iy with Range.hi = min iy.Range.hi (ix.Range.hi - 1) } )
    | Ir.Types.Ge ->
      ( Some { ix with Range.lo = max ix.Range.lo iy.Range.lo },
        Some { iy with Range.hi = min iy.Range.hi ix.Range.hi } )
    | Ir.Types.Eq -> (
      match meet ix iy with
      | Some both -> (Some both, Some both)
      | None -> (Some { Range.lo = 1; hi = 0 }, None) (* infeasible *))
    | Ir.Types.Ne | Ir.Types.Add | Ir.Types.Sub | Ir.Types.And | Ir.Types.Or
    | Ir.Types.Xor | Ir.Types.Shl | Ir.Types.Shr | Ir.Types.Ashr
    | Ir.Types.Min | Ir.Types.Max ->
      (None, None)
  in
  let apply m op bound =
    match (m, op, bound) with
    | None, _, _ -> None
    | Some m, Ir.Instr.Var v, Some (r : Range.interval) ->
      if r.Range.lo > r.Range.hi then None
      else Some (Int_map.add v.Ir.Instr.vid (v, r) m)
    | Some m, _, _ -> Some m
  in
  apply (apply (Some m) x bound_x) y bound_y

let negate_cmp = function
  | Ir.Types.Lt -> Some Ir.Types.Ge
  | Ir.Types.Le -> Some Ir.Types.Gt
  | Ir.Types.Gt -> Some Ir.Types.Le
  | Ir.Types.Ge -> Some Ir.Types.Lt
  | Ir.Types.Eq -> Some Ir.Types.Ne
  | Ir.Types.Ne -> Some Ir.Types.Eq
  | Ir.Types.Add | Ir.Types.Sub | Ir.Types.And | Ir.Types.Or | Ir.Types.Xor
  | Ir.Types.Shl | Ir.Types.Shr | Ir.Types.Ashr | Ir.Types.Min | Ir.Types.Max
    ->
    None

(* The comparison feeding a branch condition, provided neither it nor its
   operands are redefined between the compare and the block end. *)
let branch_compare (b : Ir.Block.t) (cond : Ir.Instr.var) =
  let instrs = Array.of_list b.Ir.Block.instrs in
  let n = Array.length instrs in
  let rec last_def k =
    if k < 0 then None
    else
      match Ir.Instr.def instrs.(k) with
      | Some d when Ir.Instr.var_equal d cond -> Some k
      | Some _ | None -> last_def (k - 1)
  in
  match last_def (n - 1) with
  | None -> None
  | Some k -> (
    match instrs.(k) with
    | Ir.Instr.Bin { op; a; b = rb; _ } when negate_cmp op <> None ->
      let operand_vids =
        List.filter_map
          (function Ir.Instr.Var v -> Some v.Ir.Instr.vid | Ir.Instr.Imm _ -> None)
          [ a; rb ]
      in
      let redefined_later =
        List.exists
          (fun j ->
            match Ir.Instr.def instrs.(j) with
            | Some d -> List.mem d.Ir.Instr.vid operand_vids
            | None -> false)
          (List.init (n - 1 - k) (fun i -> k + 1 + i))
      in
      if redefined_later then None else Some (op, a, rb)
    | _ -> None)

(* Widening thresholds: the constants the program compares against (±1,
   and negated), the array sizes — the bounds loop counters actually
   settle on.  Ascending, without duplicates. *)
let widen_thresholds cdfg =
  let module S = Set.Make (Int) in
  let consts = ref (S.of_list [ -1; 0; 1 ]) in
  let imm k =
    consts := S.add (k - 1) (S.add k (S.add (k + 1) (S.add (-k) !consts)))
  in
  List.iter
    (fun (d : Ir.Cdfg.array_decl) ->
      consts := S.add d.Ir.Cdfg.size (S.add (d.Ir.Cdfg.size - 1) !consts))
    (Ir.Cdfg.arrays cdfg);
  let cfg = Ir.Cdfg.cfg cdfg in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    List.iter
      (function
        | Ir.Instr.Bin { op; a; b; _ } when negate_cmp op <> None ->
          List.iter
            (function Ir.Instr.Imm k -> imm k | Ir.Instr.Var _ -> ())
            [ a; b ]
        | _ -> ())
      (Ir.Cfg.block cfg i).Ir.Block.instrs
  done;
  S.elements !consts

(* smallest threshold at or above [v] / largest at or below it *)
let threshold_hi thresholds v =
  match List.find_opt (fun t -> t >= v) thresholds with
  | Some t -> t
  | None -> Range.top.Range.hi

let threshold_lo thresholds v =
  List.fold_left
    (fun acc t -> if t <= v then Some t else acc)
    None thresholds
  |> Option.value ~default:Range.top.Range.lo

(* The register an instruction defines and the interval it gets in [m]. *)
let assign contents m instr =
  let iv = read_iv m in
  match instr with
  | Ir.Instr.Bin { dst; op; a; b } ->
    Some (dst, Range.eval_bin op (iv a) (iv b))
  | Ir.Instr.Mul { dst; a; b } -> Some (dst, Range.mul (iv a) (iv b))
  | Ir.Instr.Div { dst; a; b } | Ir.Instr.Rem { dst; a; b } ->
    Some (dst, Range.div_iv (iv a) (iv b))
  | Ir.Instr.Un { dst; op; a } -> Some (dst, Range.eval_un op (iv a))
  | Ir.Instr.Mov { dst; src } -> Some (dst, iv src)
  | Ir.Instr.Select { dst; if_true; if_false; _ } ->
    Some (dst, Range.join (iv if_true) (iv if_false))
  | Ir.Instr.Load { dst; arr; _ } -> Some (dst, contents arr)
  | Ir.Instr.Store _ -> None

let interval_analysis cdfg contents :
    (module Dataflow.ANALYSIS with type t = ienv) =
  let thresholds = widen_thresholds cdfg in
  (module struct
    type t = ienv

    let name = "intervals"
    let direction = Dataflow.Forward
    let init = Iunreached
    let boundary = Ienv Int_map.empty

    let join a b =
      match (a, b) with
      | Iunreached, x | x, Iunreached -> x
      | Ienv m1, Ienv m2 ->
        Ienv
          (Int_map.merge
             (fun _ a b ->
               match (a, b) with
               | Some (v, r1), Some (_, r2) -> Some (v, Range.join r1 r2)
               | Some (v, r), None | None, Some (v, r) ->
                 (* absent on the other side: its declared-width default *)
                 Some (v, Range.join r (default_iv v))
               | None, None -> None)
             m1 m2)

    let equal a b =
      match (a, b) with
      | Iunreached, Iunreached -> true
      | Ienv m1, Ienv m2 ->
        Int_map.equal (fun (_, r1) (_, r2) -> r1 = r2) m1 m2
      | Iunreached, Ienv _ | Ienv _, Iunreached -> false

    let transfer _ instr t =
      match t with
      | Iunreached -> Iunreached
      | Ienv m -> (
        match assign contents m instr with
        | Some (d, r) -> Ienv (Int_map.add d.Ir.Instr.vid (d, r) m)
        | None -> t)

    let transfer_term _ _ t = t
    let transfer_block = None

    let edge =
      Some
        (fun (pred : Ir.Block.t) target v ->
          match v with
          | Iunreached -> Iunreached
          | Ienv m -> (
            match pred.Ir.Block.term with
            | Ir.Block.Branch { cond = Ir.Instr.Var c; if_true; if_false }
              when if_true <> if_false -> (
              match branch_compare pred c with
              | None -> v
              | Some (op, a, b) ->
                let op =
                  if target = if_true then Some op else negate_cmp op
                in
                (match op with
                | None -> v
                | Some op -> (
                  match constrain op a b m with
                  | Some m' -> Ienv m'
                  | None -> Iunreached)))
            | Ir.Block.Branch _ | Ir.Block.Jump _ | Ir.Block.Return _ -> v))

    (* a moving bound jumps to the next enclosing threshold; a stable
       bound is kept (the chain per bound is the ladder, so finite) *)
    let widen =
      Some
        (fun old_v new_v ->
          match (old_v, new_v) with
          | Iunreached, x | x, Iunreached -> x
          | Ienv old_m, Ienv new_m ->
            Ienv
              (Int_map.merge
                 (fun _ o n ->
                   match (o, n) with
                   | Some (v, (ro : Range.interval)), Some (_, rn) ->
                     Some
                       ( v,
                         {
                           Range.lo =
                             (if rn.Range.lo < ro.Range.lo then
                                threshold_lo thresholds rn.Range.lo
                              else ro.Range.lo);
                           hi =
                             (if rn.Range.hi > ro.Range.hi then
                                threshold_hi thresholds rn.Range.hi
                              else ro.Range.hi);
                         } )
                   | None, n -> n
                   | o, None -> o)
                 old_m new_m))
  end)

(* --- the rules ----------------------------------------------------------- *)

let check_use_before_def cfg acc =
  let module A = Dataflow.Assigned in
  let sol = Dataflow.solve (module A) cfg in
  let reachable = Ir.Cfg.reachable cfg in
  let acc = ref acc in
  List.iter
    (fun i ->
      if reachable.(i) then begin
        (* per-instruction facts: the value holding *before* each one *)
        List.iteri
          (fun k (instr, fact) ->
            List.iter
              (fun (v : Ir.Instr.var) ->
                if not (A.mem v.Ir.Instr.vid fact) then
                  acc :=
                    finding Use_before_def i k
                      "%a may be read before any definition reaches it" pp_var
                      v
                    :: !acc)
              (Ir.Instr.used_vars instr))
          (Dataflow.instr_facts (module A) cfg sol i);
        let term_fact = Dataflow.term_fact (module A) cfg sol i in
        List.iter
          (fun (v : Ir.Instr.var) ->
            if not (A.mem v.Ir.Instr.vid term_fact) then
              acc :=
                finding Use_before_def i (-1)
                  "%a may be read by the terminator before any definition"
                  pp_var v
                :: !acc)
          (Ir.Block.terminator_uses (Ir.Cfg.block cfg i))
      end)
    (List.init (Ir.Cfg.block_count cfg) Fun.id);
  !acc

let check_dead_stores cfg acc =
  let ((module L) as live) = Dataflow.Liveness.analysis cfg in
  let sol = Dataflow.solve live cfg in
  let reachable = Ir.Cfg.reachable cfg in
  let acc = ref acc in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    if reachable.(i) then
      List.iteri
        (fun k (instr, after) ->
          match Ir.Instr.def instr with
          | Some d when not (Dataflow.Liveness.mem after d.Ir.Instr.vid) ->
            acc :=
              finding Dead_store i k "value of %a is never read" pp_var d
              :: !acc
          | Some _ | None -> ())
        (Dataflow.instr_facts (module L) cfg sol i)
  done;
  !acc

let check_unreachable cfg acc =
  let reachable = Ir.Cfg.reachable cfg in
  let acc = ref acc in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    if not reachable.(i) then
      acc :=
        finding Unreachable_block i 0 "block %s is unreachable from the entry"
          (Ir.Cfg.block cfg i).Ir.Block.label
        :: !acc
  done;
  !acc

let check_constant_branches cfg acc =
  let consts = Dataflow.Consts.analysis cfg in
  let sol = Dataflow.solve consts cfg in
  let reachable = Ir.Cfg.reachable cfg in
  let acc = ref acc in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    if reachable.(i) then
      match (Ir.Cfg.block cfg i).Ir.Block.term with
      | Ir.Block.Branch { cond; if_true; if_false } ->
        if if_true = if_false then
          acc :=
            finding Constant_branch i (-1) "both branch arms target %s"
              if_true
            :: !acc
        else begin
          let value =
            match cond with
            | Ir.Instr.Imm n -> Some n
            | Ir.Instr.Var v ->
              Dataflow.Consts.find v.Ir.Instr.vid (Dataflow.term_fact consts cfg sol i)
          in
          match value with
          | Some n ->
            acc :=
              finding Constant_branch i (-1)
                "branch condition is always %s; only %s is ever taken"
                (if n <> 0 then "true" else "false")
                (if n <> 0 then if_true else if_false)
              :: !acc
          | None -> ()
        end
      | Ir.Block.Jump _ | Ir.Block.Return _ -> ()
  done;
  !acc

(* Rounds of exact store joins before a still-growing array bound jumps
   to {!Range.top}'s, after which each array can grow at most twice. *)
let store_rounds = 3

(* The one interval solve every range client shares: a widened fixpoint,
   then two narrowing sweeps that claw back the bounds widening blew
   away.  While a reachable store puts a value outside its array's
   contents, the contents grow and the solve runs again.  [f block index
   instr env def] sees each instruction the final solve reaches, the
   environment holding before it, and the register it defines with the
   value it gets. *)
let iter_intervals cdfg f =
  let cfg = Ir.Cdfg.cfg cdfg in
  let contents = array_contents cdfg in
  let find arr =
    Option.value (Hashtbl.find_opt contents arr) ~default:Range.top
  in
  let reachable = Ir.Cfg.reachable cfg in
  let each_fact (module I : Dataflow.ANALYSIS with type t = ienv) sol g =
    for i = 0 to Ir.Cfg.block_count cfg - 1 do
      if reachable.(i) then
        List.iteri
          (fun k (instr, fact) ->
            match fact with
            | Iunreached -> ()
            | Ienv env -> g i k instr env)
          (Dataflow.instr_facts (module I) cfg sol i)
    done
  in
  let rec settle round =
    let analysis = interval_analysis cdfg find in
    let sol =
      Dataflow.solve analysis cfg
      |> Dataflow.refine analysis cfg
      |> Dataflow.refine analysis cfg
    in
    let grew = ref false in
    each_fact analysis sol (fun _ _ instr env ->
        match instr with
        | Ir.Instr.Store { arr; value; _ } ->
          let old = find arr and v = read_iv env value in
          if v.Range.lo < old.Range.lo || v.Range.hi > old.Range.hi then begin
            grew := true;
            Hashtbl.replace contents arr
              (if round < store_rounds then Range.join old v
               else
                 {
                   Range.lo =
                     (if v.lo < old.lo then Range.top.lo else old.lo);
                   hi = (if v.hi > old.hi then Range.top.hi else old.hi);
                 })
          end
        | _ -> ());
    if !grew then settle (round + 1) else (analysis, sol)
  in
  let analysis, sol = settle 0 in
  each_fact analysis sol (fun i k instr env ->
      f i k instr env (assign find env instr))

let register_ranges cdfg =
  let ranges : (int, Ir.Instr.var * Range.interval) Hashtbl.t =
    Hashtbl.create 64
  in
  iter_intervals cdfg (fun _ _ _ _ def ->
      match def with
      | Some (d, r) ->
        let r =
          match Hashtbl.find_opt ranges d.Ir.Instr.vid with
          | Some (_, prev) -> Range.join prev r
          | None -> r
        in
        Hashtbl.replace ranges d.Ir.Instr.vid (d, r)
      | None -> ());
  Hashtbl.fold (fun _ vr acc -> vr :: acc) ranges []
  |> List.sort (fun ((a : Ir.Instr.var), _) (b, _) -> compare a.vid b.vid)
  |> List.map (fun ((v : Ir.Instr.var), range) ->
         let declared = Range.width_range v.vwidth in
         {
           Range.var = v;
           range;
           declared;
           fits = range.lo >= declared.lo && range.hi <= declared.hi;
         })

let check_intervals cdfg acc =
  let size_of arr =
    Option.map
      (fun (d : Ir.Cdfg.array_decl) -> d.Ir.Cdfg.size)
      (Ir.Cdfg.array_decl cdfg arr)
  in
  let acc = ref acc in
  iter_intervals cdfg (fun i k instr env _ ->
      let index_check arr index =
        match size_of arr with
        | None -> ()
        | Some size ->
          let iv = read_iv env index in
          if iv.Range.lo < 0 || iv.Range.hi > size - 1 then
            acc :=
              finding Possible_out_of_bounds i k
                "index of %s may be out of bounds: inferred %a, valid [0, %d]"
                arr Range.pp_interval iv (size - 1)
              :: !acc
      in
      (match instr with
      | Ir.Instr.Load { arr; index; _ } -> index_check arr index
      | Ir.Instr.Store { arr; index; _ } -> index_check arr index
      | _ -> ());
      match instr with
      | Ir.Instr.Div { b; _ } | Ir.Instr.Rem { b; _ } -> (
        match b with
        | Ir.Instr.Imm 0 ->
          acc :=
            finding Possible_div_by_zero i k "divisor is the constant zero"
            :: !acc
        | Ir.Instr.Imm _ -> ()
        | Ir.Instr.Var _ ->
          let iv = read_iv env b in
          if Range.contains iv 0 then
            acc :=
              finding Possible_div_by_zero i k
                "divisor may be zero: inferred %a" Range.pp_interval iv
              :: !acc)
      | _ -> ());
  !acc

let check_invariant_loads cfg acc =
  let acc = ref acc in
  List.iter
    (fun (loop : Ir.Loop.t) ->
      let in_loop = Hashtbl.create 8 in
      List.iter (fun b -> Hashtbl.replace in_loop b ()) loop.Ir.Loop.body;
      (* variables defined and arrays stored inside the loop *)
      let defined = Hashtbl.create 32 in
      let stored = Hashtbl.create 4 in
      List.iter
        (fun b ->
          List.iter
            (fun instr ->
              (match Ir.Instr.def instr with
              | Some d -> Hashtbl.replace defined d.Ir.Instr.vid ()
              | None -> ());
              if Ir.Instr.is_store instr then
                match Ir.Instr.accessed_array instr with
                | Some arr -> Hashtbl.replace stored arr ()
                | None -> ())
            (Ir.Cfg.block cfg b).Ir.Block.instrs)
        loop.Ir.Loop.body;
      List.iter
        (fun b ->
          List.iteri
            (fun k instr ->
              match instr with
              | Ir.Instr.Load { arr; index; _ }
                when not (Hashtbl.mem stored arr) ->
                let invariant =
                  match index with
                  | Ir.Instr.Imm _ -> true
                  | Ir.Instr.Var v -> not (Hashtbl.mem defined v.Ir.Instr.vid)
                in
                if invariant then
                  acc :=
                    finding Unhoisted_invariant_load b k
                      "loop-invariant load of %s could be hoisted out of the \
                       loop headed by %s"
                      arr
                      (Ir.Cfg.block cfg loop.Ir.Loop.header).Ir.Block.label
                    :: !acc
              | _ -> ())
            (Ir.Cfg.block cfg b).Ir.Block.instrs)
        loop.Ir.Loop.body)
    (Ir.Loop.find cfg);
  !acc

let check_write_only cfg acc =
  let used = Hashtbl.create 64 in
  let first_def : (int, Ir.Instr.var * int * int) Hashtbl.t =
    Hashtbl.create 64
  in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    let b = Ir.Cfg.block cfg i in
    List.iteri
      (fun k instr ->
        List.iter
          (fun (v : Ir.Instr.var) -> Hashtbl.replace used v.Ir.Instr.vid ())
          (Ir.Instr.used_vars instr);
        match Ir.Instr.def instr with
        | Some d when not (Hashtbl.mem first_def d.Ir.Instr.vid) ->
          Hashtbl.replace first_def d.Ir.Instr.vid (d, i, k)
        | Some _ | None -> ())
      b.Ir.Block.instrs;
    List.iter
      (fun (v : Ir.Instr.var) -> Hashtbl.replace used v.Ir.Instr.vid ())
      (Ir.Block.terminator_uses b)
  done;
  Hashtbl.fold
    (fun vid (v, i, k) acc ->
      if Hashtbl.mem used vid then acc
      else
        finding Write_only_variable i k "%a is written but never read" pp_var v
        :: acc)
    first_def acc

let check cdfg =
  let cfg = Ir.Cdfg.cfg cdfg in
  []
  |> check_use_before_def cfg
  |> check_dead_stores cfg
  |> check_unreachable cfg
  |> check_constant_branches cfg
  |> check_intervals cdfg
  |> check_invariant_loads cfg
  |> check_write_only cfg
  |> Diagnostics.sort kind

(* --- rendering ----------------------------------------------------------- *)
