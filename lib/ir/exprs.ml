type atom = Reg of int | Imm of int

type key =
  | Bin of Types.alu_op * atom * atom
  | Mul of atom * atom
  | Un of Types.un_op * atom
  | Select of atom * atom * atom
  | Load of string * atom

let atom = function Instr.Var v -> Reg v.Instr.vid | Instr.Imm n -> Imm n
let ordered a b =
  let before =
    match (a, b) with
    | Reg x, Reg y | Imm x, Imm y -> x <= y
    | Reg _, Imm _ -> true
    | Imm _, Reg _ -> false
  in
  if before then (a, b) else (b, a)

let key (instr : Instr.t) =
  match instr with
  | Bin { op; a; b; _ } ->
    let a = atom a and b = atom b in
    let a, b =
      match op with
      | Types.Add | Types.And | Types.Or | Types.Xor | Types.Eq | Types.Ne
      | Types.Min | Types.Max ->
        ordered a b
      | Types.Sub | Types.Shl | Types.Shr | Types.Ashr | Types.Lt | Types.Le
      | Types.Gt | Types.Ge ->
        (a, b)
    in
    Some (Bin (op, a, b))
  | Mul { a; b; _ } ->
    let a, b = ordered (atom a) (atom b) in
    Some (Mul (a, b))
  | Un { op; a; _ } -> Some (Un (op, atom a))
  | Select { cond; if_true; if_false; _ } ->
    Some (Select (atom cond, atom if_true, atom if_false))
  | Load { arr; index; _ } -> Some (Load (arr, atom index))
  | Div _ | Rem _ | Mov _ | Store _ -> None

let atom_equal a b =
  match (a, b) with
  | Reg x, Reg y | Imm x, Imm y -> x = y
  | Reg _, Imm _ | Imm _, Reg _ -> false

let key_equal k1 k2 =
  match (k1, k2) with
  | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
    o1 = o2 && atom_equal a1 a2 && atom_equal b1 b2
  | Mul (a1, b1), Mul (a2, b2) -> atom_equal a1 a2 && atom_equal b1 b2
  | Un (o1, a1), Un (o2, a2) -> o1 = o2 && atom_equal a1 a2
  | Select (c1, t1, f1), Select (c2, t2, f2) ->
    atom_equal c1 c2 && atom_equal t1 t2 && atom_equal f1 f2
  | Load (r1, i1), Load (r2, i2) -> atom_equal i1 i2 && String.equal r1 r2
  | (Bin _ | Mul _ | Un _ | Select _ | Load _), _ -> false

let reads_reg k vid =
  let is = function Reg v -> v = vid | Imm _ -> false in
  match k with
  | Bin (_, a, b) | Mul (a, b) -> is a || is b
  | Un (_, a) | Load (_, a) -> is a
  | Select (c, t, f) -> is c || is t || is f

let iter_regs f k =
  let atom = function Reg v -> f v | Imm _ -> () in
  match k with
  | Bin (_, a, b) | Mul (a, b) ->
    atom a;
    atom b
  | Un (_, a) | Load (_, a) -> atom a
  | Select (c, t, e) ->
    atom c;
    atom t;
    atom e

(* keys hashed from their ints alone: a load's array name is left to
   [key_equal], so no string is hashed per instruction *)
module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let atom = function Reg v -> 2 * v | Imm n -> (2 * n) + 1
  let mix h x = (h * 65599) + x

  let hash k =
    (match k with
    | Bin (op, a, b) -> mix (mix (mix 1 (Hashtbl.hash op)) (atom a)) (atom b)
    | Mul (a, b) -> mix (mix 2 (atom a)) (atom b)
    | Un (op, a) -> mix (mix 3 (Hashtbl.hash op)) (atom a)
    | Select (c, t, f) -> mix (mix (mix 4 (atom c)) (atom t)) (atom f)
    | Load (_, i) -> mix 5 (atom i))
    land max_int
end)

type step = { expr : int; gen : int; kill : Bitset.t }

(* an interned expression: its id, its array's id for a load (else -1)
   and the registers holding it *)
type entry = {
  id : int;
  arr : int;
  mutable held : (int * int) list; (* vid, fact *)
}

type t = {
  keys : key array;  (** expression id -> key *)
  fact_expr : int array;
  fact_reg : Instr.var array;
  expr_facts : int list array;  (** expression id -> its facts *)
  steps : step array array;
}

(* what the first pass learns about one instruction: its expression, the
   fact it generates and what it kills — a register id, or [-1 - array
   id] for a store *)
type pending = { p_expr : int; p_gen : int; p_kills : int }

(* register id -> the facts its redefinition kills, while a table is built *)
let reg_kills : Bitset.t Regs.key = Regs.per_domain (Bitset.create 0)

let build cfg =
  let ids = Key_tbl.create 64 in
  let entries = ref [] and n_exprs = ref 0 in
  let facts = ref [] and n_facts = ref 0 in
  (* array names get dense ids, the index of their kill masks *)
  let arr_ids = Hashtbl.create 8 in
  let arr_id name =
    match Hashtbl.find_opt arr_ids name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length arr_ids in
      Hashtbl.add arr_ids name i;
      i
  in
  let intern k =
    match Key_tbl.find_opt ids k with
    | Some entry -> entry
    | None ->
      let arr =
        match k with
        | Load (a, _) -> arr_id a
        | Bin _ | Mul _ | Un _ | Select _ -> -1
      in
      let entry = { id = !n_exprs; arr; held = [] } in
      Key_tbl.add ids k entry;
      entries := (k, entry) :: !entries;
      incr n_exprs;
      entry
  in
  let fact entry (dst : Instr.var) =
    match List.assoc_opt dst.Instr.vid entry.held with
    | Some f -> f
    | None ->
      let f = !n_facts in
      entry.held <- (dst.Instr.vid, f) :: entry.held;
      facts := (entry.id, dst) :: !facts;
      incr n_facts;
      f
  in
  let none = { p_expr = -1; p_gen = -1; p_kills = -1 } in
  let raw =
    Array.map
      (fun (b : Block.t) ->
        let r = Array.make (List.length b.Block.instrs) none in
        List.iteri
          (fun i (instr : Instr.t) ->
            r.(i) <-
              (match instr with
              | Store { arr; _ } -> { none with p_kills = -1 - arr_id arr }
              | Bin { dst; _ } | Mul { dst; _ } | Div { dst; _ } | Rem { dst; _ }
              | Un { dst; _ } | Mov { dst; _ } | Select { dst; _ } | Load { dst; _ }
                -> (
                match key instr with
                | None -> { none with p_kills = dst.Instr.vid }
                | Some k ->
                  let entry = intern k in
                  (* x = x + 1 is stale the moment it is computed *)
                  let gen =
                    if reads_reg k dst.Instr.vid then -1 else fact entry dst
                  in
                  { p_expr = entry.id; p_gen = gen; p_kills = dst.Instr.vid })))
          b.Block.instrs;
        r)
      (Cfg.blocks cfg)
  in
  let n = !n_facts in
  let entries = Array.of_list (List.rev !entries) in
  let keys = Array.map fst entries in
  let facts = Array.of_list (List.rev !facts) in
  let fact_expr = Array.map fst facts and fact_reg = Array.map snd facts in
  let expr_facts = Array.map (fun (_, entry) -> List.map snd entry.held) entries in
  (* kill masks: a register's facts are those held in it or reading it, an
     array's are its loads *)
  let empty = Bitset.create n in
  let reg_kill = Regs.fresh reg_kills in
  let arr_kill = Array.make (Hashtbl.length arr_ids) empty in
  let mark_reg v f =
    if not (Regs.mem reg_kill v) then Regs.set reg_kill v (Bitset.create n);
    Bitset.add (Regs.get reg_kill v) f
  in
  Array.iteri
    (fun f (e, (r : Instr.var)) ->
      mark_reg r.Instr.vid f;
      let k, entry = entries.(e) in
      iter_regs (fun v -> mark_reg v f) k;
      if entry.arr >= 0 then begin
        if arr_kill.(entry.arr) == empty then arr_kill.(entry.arr) <- Bitset.create n;
        Bitset.add arr_kill.(entry.arr) f
      end)
    facts;
  let steps =
    Array.map
      (Array.map (fun p ->
           let kill =
             if p.p_kills < 0 then arr_kill.(-1 - p.p_kills)
             else if Regs.mem reg_kill p.p_kills then Regs.get reg_kill p.p_kills
             else empty
           in
           { expr = p.p_expr; gen = p.p_gen; kill }))
      raw
  in
  { keys; fact_expr; fact_reg; expr_facts; steps }

let expr_count t = Array.length t.keys
let fact_count t = Array.length t.fact_expr
let step t block index = t.steps.(block).(index)
let fact_expr t f = t.fact_expr.(f)
let fact_reg t f = t.fact_reg.(f)
let expr_facts t e = t.expr_facts.(e)

let holder t e s =
  List.find_map
    (fun f -> if Bitset.mem s f then Some t.fact_reg.(f) else None)
    t.expr_facts.(e)

let apply t st s =
  Bitset.diff_into s st.kill;
  if st.gen >= 0 then begin
    List.iter (Bitset.remove s) t.expr_facts.(st.expr);
    Bitset.add s st.gen
  end

let facts t s =
  let out = ref [] in
  Bitset.iter
    (fun f -> out := (t.keys.(t.fact_expr.(f)), t.fact_reg.(f)) :: !out)
    s;
  List.rev !out
