module Ir = Hypar_ir
module B = Ir.Builder

(* The builder numbers the registers and assembles the blocks; this state
   adds only what structured control flow needs on top of it. *)
type state = {
  b : B.t;
  mutable next_label : int;
  vars : (string, Ir.Instr.var) Hashtbl.t;  (* source name -> register *)
  bool_vars : (int, unit) Hashtbl.t;  (* vids known to hold 0/1 *)
  mutable current_label : string;
  mutable block_open : bool;
}

let new_label st hint =
  let l = Printf.sprintf "L%d_%s" st.next_label hint in
  st.next_label <- st.next_label + 1;
  l

let finish st term =
  B.finish_block st.b ~label:st.current_label ~term;
  st.block_open <- false

let start st label =
  st.current_label <- label;
  st.block_open <- true

let source_var st name ~width =
  match Hashtbl.find_opt st.vars name with
  | Some v -> v
  | None ->
    let v = B.fresh_var ~width st.b name in
    Hashtbl.replace st.vars name v;
    v

let lookup_var st name =
  match Hashtbl.find_opt st.vars name with
  | Some v -> v
  | None -> invalid_arg ("lower: unbound variable " ^ name)

(* --- expressions -------------------------------------------------------- *)

let is_bool_operand st = function
  | Ir.Instr.Imm (0 | 1) -> true
  | Ir.Instr.Imm _ -> false
  | Ir.Instr.Var v -> Hashtbl.mem st.bool_vars v.Ir.Instr.vid

let alu_of_binop = function
  | Ast.Add -> Some Ir.Types.Add
  | Ast.Sub -> Some Ir.Types.Sub
  | Ast.Band -> Some Ir.Types.And
  | Ast.Bor -> Some Ir.Types.Or
  | Ast.Bxor -> Some Ir.Types.Xor
  | Ast.Shl -> Some Ir.Types.Shl
  | Ast.Shr -> Some Ir.Types.Ashr (* C '>>' on signed ints: arithmetic *)
  | Ast.Lt -> Some Ir.Types.Lt
  | Ast.Le -> Some Ir.Types.Le
  | Ast.Gt -> Some Ir.Types.Gt
  | Ast.Ge -> Some Ir.Types.Ge
  | Ast.Eq -> Some Ir.Types.Eq
  | Ast.Ne -> Some Ir.Types.Ne
  | Ast.Mul | Ast.Div | Ast.Mod | Ast.Land | Ast.Lor -> None

let instr_of_binop dst op a b =
  match (op, alu_of_binop op) with
  | _, Some op -> Some (Ir.Instr.Bin { dst; op; a; b })
  | Ast.Mul, None -> Some (Ir.Instr.Mul { dst; a; b })
  | Ast.Div, None -> Some (Ir.Instr.Div { dst; a; b })
  | Ast.Mod, None -> Some (Ir.Instr.Rem { dst; a; b })
  | _, None -> None

let is_comparison = function
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> true
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor
  | Ast.Bxor | Ast.Shl | Ast.Shr | Ast.Land | Ast.Lor ->
    false

let lower_un st op name a =
  Ir.Instr.Var (B.un ~width:(Ir.Instr.un_width op a) st.b op name a)

(* a 1-bit result, recorded as holding 0/1 *)
let lower_bool st op name a b =
  let dst = B.bin ~width:1 st.b op name a b in
  Hashtbl.replace st.bool_vars dst.Ir.Instr.vid ();
  Ir.Instr.Var dst

let rec lower_expr st (e : Ast.expr) : Ir.Instr.operand =
  match e.Ast.desc with
  | Ast.Num n -> Ir.Instr.Imm n
  | Ast.Ident name -> Ir.Instr.Var (lookup_var st name)
  | Ast.Index (arr, ix) ->
    let index = lower_expr st ix in
    Ir.Instr.Var (B.load ~width:16 st.b "t_load" ~arr index)
  | Ast.Call (fname, args) -> lower_builtin st e.Ast.epos fname args
  | Ast.Unary (op, a) -> lower_unary st op a
  | Ast.Binary (op, a, b) -> lower_binary st op a b
  | Ast.Ternary (c, t, f) ->
    let cond = lower_expr st c in
    let if_true = lower_expr st t in
    let if_false = lower_expr st f in
    let width = Ir.Instr.select_width if_true if_false in
    let dst = B.fresh_var ~width st.b "t_sel" in
    B.emit st.b (Ir.Instr.Select { dst; cond; if_true; if_false });
    Ir.Instr.Var dst

and lower_builtin st pos fname args =
  match (fname, args) with
  | "min", [ a; b ] | "max", [ a; b ] ->
    let a = lower_expr st a and b = lower_expr st b in
    let op = if fname = "min" then Ir.Types.Min else Ir.Types.Max in
    let width = Ir.Instr.alu_width op a b in
    Ir.Instr.Var (B.bin ~width st.b op ("t_" ^ fname) a b)
  | "abs", [ a ] -> lower_un st Ir.Types.Abs "t_abs" (lower_expr st a)
  | _ ->
    invalid_arg
      (Printf.sprintf "lower: unexpected call to %S at %d:%d (program not inlined?)"
         fname pos.Token.line pos.Token.col)

and lower_unary st op a =
  match op with
  | Ast.Neg -> lower_un st Ir.Types.Neg "t_neg" (lower_expr st a)
  | Ast.Bitnot -> lower_un st Ir.Types.Not "t_not" (lower_expr st a)
  | Ast.Lognot -> lower_bool st Ir.Types.Eq "t_lnot" (lower_expr st a) (Ir.Instr.Imm 0)

and as_bool st op =
  if is_bool_operand st op then op
  else lower_bool st Ir.Types.Ne "t_bool" op (Ir.Instr.Imm 0)

and lower_binary st op a b =
  match op with
  | Ast.Land | Ast.Lor ->
    let a = as_bool st (lower_expr st a) in
    let b = as_bool st (lower_expr st b) in
    let ir_op = if op = Ast.Land then Ir.Types.And else Ir.Types.Or in
    lower_bool st ir_op "t_log" a b
  | _ ->
    let a = lower_expr st a and b = lower_expr st b in
    let width, name =
      match (op, alu_of_binop op) with
      | _, Some ir_op -> (Ir.Instr.alu_width ir_op a b, "t")
      | Ast.Mul, None -> (Ir.Instr.mul_width a b, "t_mul")
      | Ast.Div, None -> (Ir.Instr.div_width a b, "t_div")
      | _, None -> (Ir.Instr.div_width a b, "t_mod")
    in
    let dst = B.fresh_var ~width st.b name in
    B.emit st.b (Option.get (instr_of_binop dst op a b));
    if is_comparison op then Hashtbl.replace st.bool_vars dst.Ir.Instr.vid ();
    Ir.Instr.Var dst

(* Lower [e] directly into destination register [dst] (avoids a trailing
   move for the common "x = a op b" statements). *)
let lower_expr_into st (dst : Ir.Instr.var) (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Binary (op, a, b) when op <> Ast.Land && op <> Ast.Lor ->
    let a = lower_expr st a and b = lower_expr st b in
    B.emit st.b (Option.get (instr_of_binop dst op a b));
    if is_comparison op then Hashtbl.replace st.bool_vars dst.Ir.Instr.vid ()
    else Hashtbl.remove st.bool_vars dst.Ir.Instr.vid
  | Ast.Index (arr, ix) ->
    let index = lower_expr st ix in
    Hashtbl.remove st.bool_vars dst.Ir.Instr.vid;
    B.emit st.b (Ir.Instr.Load { dst; arr; index })
  | _ ->
    let src = lower_expr st e in
    if is_bool_operand st src then Hashtbl.replace st.bool_vars dst.Ir.Instr.vid ()
    else Hashtbl.remove st.bool_vars dst.Ir.Instr.vid;
    B.emit st.b (Ir.Instr.Mov { dst; src })

(* --- statements ---------------------------------------------------------- *)

let rec lower_stmt st (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Decl { name; width; init } -> (
    let v = source_var st name ~width in
    match init with
    | Some e -> lower_expr_into st v e
    | None -> B.emit st.b (Ir.Instr.Mov { dst = v; src = Ir.Instr.Imm 0 }))
  | Ast.Assign { name; value } -> lower_expr_into st (lookup_var st name) value
  | Ast.Array_assign { arr; index; value } ->
    let index = lower_expr st index in
    let value = lower_expr st value in
    B.emit st.b (Ir.Instr.Store { arr; index; value })
  | Ast.If { cond; then_branch; else_branch } ->
    let cond_op = lower_expr st cond in
    let then_l = new_label st "then" in
    let join_l = new_label st "join" in
    let else_l =
      if else_branch = [] then join_l else new_label st "else"
    in
    finish st (Ir.Block.Branch { cond = cond_op; if_true = then_l; if_false = else_l });
    start st then_l;
    lower_stmts st then_branch;
    finish st (Ir.Block.Jump join_l);
    if else_branch <> [] then begin
      start st else_l;
      lower_stmts st else_branch;
      finish st (Ir.Block.Jump join_l)
    end;
    start st join_l
  | Ast.While { cond; body } ->
    (* Loop rotation: guard at entry, latch condition at the body's tail,
       so simple loop bodies become single self-looping basic blocks (the
       shape of the paper's CDFG kernels). *)
    let body_l = new_label st "while_body" in
    let exit_l = new_label st "while_exit" in
    let guard = lower_expr st cond in
    finish st (Ir.Block.Branch { cond = guard; if_true = body_l; if_false = exit_l });
    start st body_l;
    lower_stmts st body;
    let latch = lower_expr st cond in
    finish st (Ir.Block.Branch { cond = latch; if_true = body_l; if_false = exit_l });
    start st exit_l
  | Ast.Do_while { body; cond } ->
    let body_l = new_label st "do_body" in
    let exit_l = new_label st "do_exit" in
    finish st (Ir.Block.Jump body_l);
    start st body_l;
    lower_stmts st body;
    let cond_op = lower_expr st cond in
    finish st (Ir.Block.Branch { cond = cond_op; if_true = body_l; if_false = exit_l });
    start st exit_l
  | Ast.For { init; cond; step; body } ->
    (* Rotated like [while]: init and guard in the preheader; body, step
       and latch condition in one tail block. *)
    (match init with Some s0 -> lower_stmt st s0 | None -> ());
    let body_l = new_label st "for_body" in
    let exit_l = new_label st "for_exit" in
    let guard =
      match cond with Some c -> lower_expr st c | None -> Ir.Instr.Imm 1
    in
    finish st (Ir.Block.Branch { cond = guard; if_true = body_l; if_false = exit_l });
    start st body_l;
    lower_stmts st body;
    (match step with Some s0 -> lower_stmt st s0 | None -> ());
    let latch =
      match cond with Some c -> lower_expr st c | None -> Ir.Instr.Imm 1
    in
    finish st (Ir.Block.Branch { cond = latch; if_true = body_l; if_false = exit_l });
    start st exit_l
  | Ast.Return value ->
    (* typecheck guarantees this is the last statement of the program *)
    let op = Option.map (lower_expr st) value in
    finish st (Ir.Block.Return op)
  | Ast.Expr_stmt e ->
    (* evaluated for effect only; loads/ops are dead and cleaned by DCE *)
    ignore (lower_expr st e)
  | Ast.Block body -> lower_stmts st body

and lower_stmts st stmts = List.iter (lower_stmt st) stmts

(* --- program ------------------------------------------------------------- *)

let program ?(name = "minic") (prog : Ast.program) =
  let main =
    match prog.Ast.funcs with
    | [ f ] when f.Ast.fname = "main" -> f
    | _ -> invalid_arg "lower: expected a single inlined 'main'"
  in
  let st =
    {
      b = B.create ();
      next_label = 0;
      vars = Hashtbl.create 64;
      bool_vars = Hashtbl.create 64;
      current_label = "entry";
      block_open = true;
    }
  in
  (* global scalar initialisation belongs to the entry block *)
  List.iter
    (function
      | Ast.Global_scalar { gname; gwidth; gvalue } ->
        let v = source_var st gname ~width:gwidth in
        B.emit st.b
          (Ir.Instr.Mov { dst = v; src = Ir.Instr.Imm (Option.value gvalue ~default:0) })
      | Ast.Global_array { gname; size; ginit; is_const; gelem_width } ->
        let init =
          Option.map
            (fun vals ->
              let arr = Array.make size 0 in
              List.iteri (fun i v -> if i < size then arr.(i) <- v) vals;
              arr)
            ginit
        in
        B.declare_array ?init ~is_const ~elem_width:gelem_width st.b gname size)
    prog.Ast.globals;
  lower_stmts st main.Ast.body;
  if st.block_open then finish st (Ir.Block.Return None);
  B.cdfg ~name st.b
