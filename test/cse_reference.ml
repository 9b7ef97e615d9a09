(* Reference oracle for the dense-id CSE machinery: the string-keyed
   available-expressions lattice, global CSE and local CSE as they were
   before {!Hypar_ir.Exprs}, kept here to cross-check the table, its kill
   masks and the bitset lattice.  One deliberate change from that code:
   a load key's array field is not an operand, so an array named like a
   register ("v3") no longer collides with register 3. *)

module Ir = Hypar_ir
module Instr = Ir.Instr
module Types = Ir.Types
module Block = Ir.Block
module Cdfg = Ir.Cdfg
module D = Ir.Dataflow
module String_map = Map.Make (String)

let operand_key = function
  | Instr.Var v -> Printf.sprintf "v%d" v.Instr.vid
  | Instr.Imm n -> Printf.sprintf "#%d" n

let expr_key (instr : Instr.t) : string option =
  match instr with
  | Bin { op; a; b; _ } ->
    let ka = operand_key a and kb = operand_key b in
    let ka, kb =
      match op with
      | Types.Add | Types.And | Types.Or | Types.Xor | Types.Eq | Types.Ne
      | Types.Min | Types.Max ->
        if ka <= kb then (ka, kb) else (kb, ka)
      | Types.Sub | Types.Shl | Types.Shr | Types.Ashr | Types.Lt | Types.Le
      | Types.Gt | Types.Ge ->
        (ka, kb)
    in
    Some (Printf.sprintf "bin:%s:%s:%s" (Types.string_of_alu_op op) ka kb)
  | Mul { a; b; _ } ->
    let ka = operand_key a and kb = operand_key b in
    let ka, kb = if ka <= kb then (ka, kb) else (kb, ka) in
    Some (Printf.sprintf "mul:%s:%s" ka kb)
  | Un { op; a; _ } ->
    Some (Printf.sprintf "un:%s:%s" (Types.string_of_un_op op) (operand_key a))
  | Select { cond; if_true; if_false; _ } ->
    Some
      (Printf.sprintf "sel:%s:%s:%s" (operand_key cond) (operand_key if_true)
         (operand_key if_false))
  | Load { arr; index; _ } ->
    Some (Printf.sprintf "load:%s:%s" arr (operand_key index))
  | Div _ | Rem _ | Mov _ | Store _ -> None

(* the same string for a structural key, so facts of both lattices compare *)
let string_of_key (k : Ir.Exprs.key) =
  let atom = function
    | Ir.Exprs.Reg v -> Printf.sprintf "v%d" v
    | Ir.Exprs.Imm n -> Printf.sprintf "#%d" n
  in
  let sorted a b = if a <= b then (a, b) else (b, a) in
  match k with
  | Bin (op, a, b) ->
    let a = atom a and b = atom b in
    let a, b =
      match op with
      | Types.Add | Types.And | Types.Or | Types.Xor | Types.Eq | Types.Ne
      | Types.Min | Types.Max ->
        sorted a b
      | Types.Sub | Types.Shl | Types.Shr | Types.Ashr | Types.Lt | Types.Le
      | Types.Gt | Types.Ge ->
        (a, b)
    in
    Printf.sprintf "bin:%s:%s:%s" (Types.string_of_alu_op op) a b
  | Mul (a, b) ->
    let a, b = sorted (atom a) (atom b) in
    Printf.sprintf "mul:%s:%s" a b
  | Un (op, a) -> Printf.sprintf "un:%s:%s" (Types.string_of_un_op op) (atom a)
  | Select (c, t, f) -> Printf.sprintf "sel:%s:%s:%s" (atom c) (atom t) (atom f)
  | Load (arr, i) -> Printf.sprintf "load:%s:%s" arr (atom i)

module Avail = struct
  type avail = All | Known of Instr.var String_map.t
  type t = avail

  let name = "avail_reference"
  let direction = D.Forward
  let init = All
  let boundary = Known String_map.empty

  let join a b =
    match (a, b) with
    | All, x | x, All -> x
    | Known m1, Known m2 ->
      Known
        (String_map.merge
           (fun _ a b ->
             match (a, b) with
             | Some v1, Some v2 when Instr.var_equal v1 v2 -> Some v1
             | _ -> None)
           m1 m2)

  let equal a b =
    match (a, b) with
    | All, All -> true
    | Known m1, Known m2 -> String_map.equal Instr.var_equal m1 m2
    | All, Known _ | Known _, All -> false

  (* does an expression key read this register? *)
  let key_mentions key vid =
    let atom = "v" ^ string_of_int vid in
    match String.split_on_char ':' key with
    | "load" :: _arr :: operands -> List.mem atom operands
    | atoms -> List.mem atom atoms

  let kill_var m (v : Instr.var) =
    String_map.filter
      (fun key cached ->
        (not (Instr.var_equal cached v)) && not (key_mentions key v.Instr.vid))
      m

  let kill_array m arr =
    String_map.filter
      (fun key _ ->
        match String.split_on_char ':' key with
        | "load" :: a :: _ -> a <> arr
        | _ -> true)
      m

  let transfer _ instr t =
    match t with
    | All -> All
    | Known m ->
      if Instr.is_store instr then
        Known
          (match Instr.accessed_array instr with
          | Some arr -> kill_array m arr
          | None -> m)
      else
        let m =
          match Instr.def instr with Some d -> kill_var m d | None -> m
        in
        Known
          (match (expr_key instr, Instr.def instr) with
          | Some key, Some dst ->
            let self_referential =
              List.exists
                (fun v -> Instr.var_equal v dst)
                (Instr.used_vars instr)
            in
            if self_referential then m else String_map.add key dst m
          | _ -> m)

  let transfer_term _ _ t = t
  let transfer_block = None
  let edge = None
  let widen = None

  let find key = function
    | All -> None
    | Known m -> String_map.find_opt key m
end

let rebuild cdfg blocks =
  Cdfg.make ~name:(Cdfg.name cdfg) ~arrays:(Cdfg.arrays cdfg)
    (Ir.Cfg.of_blocks blocks)

let global_cse cdfg =
  let cfg = Cdfg.cfg cdfg in
  let sol = D.solve (module Avail) cfg in
  let rewrite i (b : Block.t) =
    match sol.D.at_entry.(i) with
    | Avail.All -> b
    | Avail.Known _ ->
      let fact = ref sol.D.at_entry.(i) in
      let instrs =
        List.mapi
          (fun k instr ->
            let replacement =
              match (expr_key instr, Instr.def instr) with
              | Some key, Some dst -> (
                match Avail.find key !fact with
                | Some cached when not (Instr.var_equal cached dst) ->
                  Some (Instr.Mov { dst; src = Var cached })
                | Some _ | None -> None)
              | _ -> None
            in
            fact := Avail.transfer { D.block = i; index = k } instr !fact;
            Option.value replacement ~default:instr)
          b.Block.instrs
      in
      { b with Block.instrs }
  in
  rebuild cdfg
    (List.map
       (fun i -> rewrite i (Cdfg.info cdfg i).Cdfg.block)
       (Cdfg.block_ids cdfg))

let cse_block (b : Block.t) =
  let available : (string, Instr.var) Hashtbl.t = Hashtbl.create 32 in
  let keys_by_var : (int, string list) Hashtbl.t = Hashtbl.create 32 in
  let keys_by_arr : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let push tbl k key =
    Hashtbl.replace tbl k
      (key :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  let remember_deps key instr =
    List.iter
      (fun (v : Instr.var) -> push keys_by_var v.Instr.vid key)
      (Instr.used_vars instr);
    Option.iter (fun arr -> push keys_by_arr arr key) (Instr.accessed_array instr)
  in
  let kill_var (v : Instr.var) =
    Option.iter
      (List.iter (Hashtbl.remove available))
      (Hashtbl.find_opt keys_by_var v.Instr.vid);
    Hashtbl.remove keys_by_var v.Instr.vid;
    let stale =
      Hashtbl.fold
        (fun key cached acc ->
          if Instr.var_equal cached v then key :: acc else acc)
        available []
    in
    List.iter (Hashtbl.remove available) stale
  in
  let kill_array arr =
    Option.iter
      (List.iter (Hashtbl.remove available))
      (Hashtbl.find_opt keys_by_arr arr);
    Hashtbl.remove keys_by_arr arr
  in
  let process (instr : Instr.t) : Instr.t =
    if Instr.is_store instr then begin
      Option.iter kill_array (Instr.accessed_array instr);
      instr
    end
    else
      let key = expr_key instr in
      let replacement = Option.bind key (Hashtbl.find_opt available) in
      match (replacement, Instr.def instr) with
      | Some cached, Some dst ->
        kill_var dst;
        Instr.Mov { dst; src = Var cached }
      | _, def ->
        Option.iter kill_var def;
        (match (key, def) with
        | Some k, Some dst ->
          let self_referential =
            List.exists (fun v -> Instr.var_equal v dst) (Instr.used_vars instr)
          in
          if not self_referential then begin
            Hashtbl.replace available k dst;
            remember_deps k instr
          end
        | _, _ -> ());
        instr
  in
  { b with Block.instrs = List.map process b.Block.instrs }

let common_subexpressions cdfg =
  rebuild cdfg
    (List.map
       (fun i -> cse_block (Cdfg.info cdfg i).Cdfg.block)
       (Cdfg.block_ids cdfg))
