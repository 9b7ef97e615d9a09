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

let operands = function
  | Bin (_, a, b) | Mul (a, b) -> [ a; b ]
  | Un (_, a) | Load (_, a) -> [ a ]
  | Select (c, t, f) -> [ c; t; f ]

type step = { expr : int; gen : int; kill : Bitset.t }

(* an interned expression: its id and the registers holding it *)
type entry = { id : int; mutable held : (int * int) list (* vid, fact *) }

type t = {
  keys : key array;  (** expression id -> key *)
  fact_expr : int array;
  fact_reg : Instr.var array;
  expr_facts : int list array;  (** expression id -> its facts *)
  steps : step array array;
}

(* what the first pass learns about one instruction *)
type effect = Defines of int | Stores of string

let build cfg =
  let ids = Hashtbl.create 64 in
  let keys = ref [] and n_exprs = ref 0 in
  let facts = ref [] and n_facts = ref 0 in
  let intern k =
    match Hashtbl.find_opt ids k with
    | Some entry -> entry
    | None ->
      let entry = { id = !n_exprs; held = [] } in
      Hashtbl.add ids k entry;
      keys := k :: !keys;
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
  let raw =
    Array.map
      (fun (b : Block.t) ->
        Array.of_list
          (List.map
             (fun instr ->
               match (key instr, Instr.def instr) with
               | _, None ->
                 (-1, -1, Stores (Option.get (Instr.accessed_array instr)))
               | None, Some d -> (-1, -1, Defines d.Instr.vid)
               | Some k, Some d ->
                 let entry = intern k in
                 (* x = x + 1 is stale the moment it is computed *)
                 let gen =
                   if List.mem (Reg d.Instr.vid) (operands k) then -1
                   else fact entry d
                 in
                 (entry.id, gen, Defines d.Instr.vid))
             b.Block.instrs))
      (Cfg.blocks cfg)
  in
  let n = !n_facts in
  let keys = Array.of_list (List.rev !keys) in
  let facts = Array.of_list (List.rev !facts) in
  let fact_expr = Array.map fst facts and fact_reg = Array.map snd facts in
  let expr_facts = Array.make (Array.length keys) [] in
  Hashtbl.iter (fun _ entry -> expr_facts.(entry.id) <- List.map snd entry.held) ids;
  (* kill masks: a register's facts are those held in it or reading it, an
     array's are its loads *)
  let reg_kill = Hashtbl.create 64 and arr_kill = Hashtbl.create 8 in
  let mark tbl x f =
    let m =
      match Hashtbl.find_opt tbl x with
      | Some m -> m
      | None ->
        let m = Bitset.create n in
        Hashtbl.add tbl x m;
        m
    in
    Bitset.add m f
  in
  Array.iteri
    (fun f (e, (r : Instr.var)) ->
      mark reg_kill r.Instr.vid f;
      let k = keys.(e) in
      List.iter (function Reg v -> mark reg_kill v f | Imm _ -> ()) (operands k);
      match k with
      | Load (arr, _) -> mark arr_kill arr f
      | Bin _ | Mul _ | Un _ | Select _ -> ())
    facts;
  let empty = Bitset.create n in
  let mask tbl x = Option.value (Hashtbl.find_opt tbl x) ~default:empty in
  let steps =
    Array.map
      (Array.map (fun (expr, gen, effect) ->
           let kill =
             match effect with
             | Defines vid -> mask reg_kill vid
             | Stores arr -> mask arr_kill arr
           in
           { expr; gen; kill }))
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
