module Ast = Hypar_minic.Ast
module Token = Hypar_minic.Token

type code =
  | Unused_variable
  | Unused_parameter
  | Dead_assignment
  | Unreachable_code
  | Constant_condition
  | Division_by_zero
  | Shift_out_of_range
  | Width_overflow
  | Induction_write

type diagnostic = { code : code; line : int; col : int; message : string }

let kind =
  {
    Diagnostics.codes =
      [
        (Unused_variable, "W001", "unused-variable");
        (Unused_parameter, "W002", "unused-parameter");
        (Dead_assignment, "W003", "dead-assignment");
        (Unreachable_code, "W004", "unreachable-code");
        (Constant_condition, "W005", "constant-condition");
        (Division_by_zero, "W006", "possible-div-by-zero");
        (Shift_out_of_range, "W007", "shift-out-of-range");
        (Width_overflow, "W008", "width-overflow");
        (Induction_write, "W009", "induction-write");
      ];
    severity = "warning";
    key = "diagnostics";
    code = (fun d -> d.code);
    message = (fun d -> d.message);
    position = (fun d -> Printf.sprintf "%d:%d" d.line d.col);
    fields = (fun d -> [ ("line", d.line); ("col", d.col) ]);
  }

let diag code (pos : Token.pos) fmt =
  Format.kasprintf
    (fun message -> { code; line = pos.line; col = pos.col; message })
    fmt

let sort_diags = Diagnostics.sort kind

(* --- AST walking helpers ------------------------------------------------ *)

let rec expr_reads acc (e : Ast.expr) =
  match e.desc with
  | Ast.Num _ -> acc
  | Ast.Ident x -> x :: acc
  | Ast.Index (_, i) -> expr_reads acc i
  | Ast.Call (_, args) -> List.fold_left expr_reads acc args
  | Ast.Unary (_, a) -> expr_reads acc a
  | Ast.Binary (_, a, b) -> expr_reads (expr_reads acc a) b
  | Ast.Ternary (c, t, f) -> expr_reads (expr_reads (expr_reads acc c) t) f

let rec expr_arrays acc (e : Ast.expr) =
  match e.desc with
  | Ast.Num _ | Ast.Ident _ -> acc
  | Ast.Index (arr, i) -> expr_arrays (arr :: acc) i
  | Ast.Call (_, args) -> List.fold_left expr_arrays acc args
  | Ast.Unary (_, a) -> expr_arrays acc a
  | Ast.Binary (_, a, b) -> expr_arrays (expr_arrays acc a) b
  | Ast.Ternary (c, t, f) -> expr_arrays (expr_arrays (expr_arrays acc c) t) f

(* shallow: the expressions a statement itself evaluates *)
let stmt_exprs (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Decl { init; _ } -> Option.to_list init
  | Ast.Assign { value; _ } -> [ value ]
  | Ast.Array_assign { index; value; _ } -> [ index; value ]
  | Ast.If { cond; _ } -> [ cond ]
  | Ast.While { cond; _ } | Ast.Do_while { cond; _ } -> [ cond ]
  | Ast.For { cond; _ } -> Option.to_list cond
  | Ast.Return e -> Option.to_list e
  | Ast.Expr_stmt e -> [ e ]
  | Ast.Block _ -> []

(* every statement, in source order, including nested ones *)
let rec iter_stmts f stmts = List.iter (iter_stmt f) stmts

and iter_stmt f (s : Ast.stmt) =
  f s;
  match s.sdesc with
  | Ast.If { then_branch; else_branch; _ } ->
    iter_stmts f then_branch;
    iter_stmts f else_branch
  | Ast.While { body; _ } | Ast.Do_while { body; _ } -> iter_stmts f body
  | Ast.For { init; step; body; _ } ->
    Option.iter (iter_stmt f) init;
    Option.iter (iter_stmt f) step;
    iter_stmts f body
  | Ast.Block body -> iter_stmts f body
  | Ast.Decl _ | Ast.Assign _ | Ast.Array_assign _ | Ast.Return _
  | Ast.Expr_stmt _ ->
    ()

let rec iter_exprs f (e : Ast.expr) =
  f e;
  match e.desc with
  | Ast.Num _ | Ast.Ident _ -> ()
  | Ast.Index (_, i) -> iter_exprs f i
  | Ast.Call (_, args) -> List.iter (iter_exprs f) args
  | Ast.Unary (_, a) -> iter_exprs f a
  | Ast.Binary (_, a, b) ->
    iter_exprs f a;
    iter_exprs f b
  | Ast.Ternary (c, t, f') ->
    iter_exprs f c;
    iter_exprs f t;
    iter_exprs f f'

(* --- constant folding over expressions ---------------------------------- *)

(* An operator folds by the IR's rule on the instruction it lowers to,
   so a condition is constant exactly when the profiled program computes
   a constant there (a shift amount outside 0..62 is clamped). *)
let fold_binop (op : Ast.binop) x y =
  let module I = Hypar_ir.Instr in
  let scratch = { I.vname = "c"; vid = 0; vwidth = 32 } in
  match Hypar_minic.Lower.instr_of_binop scratch op (I.Imm x) (I.Imm y) with
  | Some i -> I.eval (function I.Imm n -> Some n | I.Var _ -> None) i
  | None ->
    let holds = if op = Ast.Land then x <> 0 && y <> 0 else x <> 0 || y <> 0 in
    Some (if holds then 1 else 0)

let rec const_value (e : Ast.expr) =
  match e.desc with
  | Ast.Num n -> Some n
  | Ast.Unary (Ast.Neg, a) -> Option.map (fun n -> -n) (const_value a)
  | Ast.Unary (Ast.Lognot, a) ->
    Option.map (fun n -> if n = 0 then 1 else 0) (const_value a)
  | Ast.Unary (Ast.Bitnot, a) -> Option.map lnot (const_value a)
  | Ast.Binary (op, a, b) -> (
    match (const_value a, const_value b) with
    | Some x, Some y -> fold_binop op x y
    | (Some _ | None), (Some _ | None) -> None)
  | Ast.Ternary (c, t, f) -> (
    match const_value c with
    | Some n -> const_value (if n <> 0 then t else f)
    | None -> None)
  | Ast.Ident _ | Ast.Index _ | Ast.Call _ -> None

(* --- W001 / W002: unused variables and parameters ------------------------ *)

let reads_of_func (f : Ast.func) =
  let reads : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let arrays : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  iter_stmts
    (fun s ->
      List.iter
        (fun e ->
          List.iter (fun x -> Hashtbl.replace reads x ()) (expr_reads [] e);
          List.iter (fun a -> Hashtbl.replace arrays a ()) (expr_arrays [] e))
        (stmt_exprs s);
      match s.sdesc with
      | Ast.Array_assign { arr; _ } -> Hashtbl.replace arrays arr ()
      | _ -> ())
    f.body;
  (reads, arrays)

let unused_rules (f : Ast.func) =
  let reads, arrays = reads_of_func f in
  let diags = ref [] in
  iter_stmts
    (fun s ->
      match s.sdesc with
      | Ast.Decl { name; _ } when not (Hashtbl.mem reads name) ->
        diags :=
          diag Unused_variable s.spos "variable %S is never read" name :: !diags
      | _ -> ())
    f.body;
  List.iter
    (fun p ->
      match p with
      | Ast.Scalar_param { pname; _ } when not (Hashtbl.mem reads pname) ->
        diags :=
          diag Unused_parameter f.fpos "parameter %S of %S is never read" pname
            f.fname
          :: !diags
      | Ast.Array_param { pname; _ }
        when (not (Hashtbl.mem arrays pname)) && not (Hashtbl.mem reads pname) ->
        diags :=
          diag Unused_parameter f.fpos "array parameter %S of %S is never used"
            pname f.fname
          :: !diags
      | Ast.Scalar_param _ | Ast.Array_param _ -> ())
    f.params;
  !diags

(* --- W003: assignments never read ---------------------------------------- *)

let dead_assignment_rules (f : Ast.func) =
  let diags = ref [] in
  let locals : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  iter_stmts
    (fun s ->
      match s.sdesc with
      | Ast.Decl { name; _ } -> Hashtbl.replace locals name ()
      | _ -> ())
    f.body;
  let report (pos : Token.pos) name =
    diags :=
      diag Dead_assignment pos "value assigned to %S is never read" name
      :: !diags
  in
  (* names read or written anywhere inside a compound statement: its entry
     invalidates what we know about them on the straight-line path *)
  let mentioned stmts =
    let acc : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    iter_stmts
      (fun s ->
        List.iter
          (fun e ->
            List.iter (fun x -> Hashtbl.replace acc x ()) (expr_reads [] e))
          (stmt_exprs s);
        match s.sdesc with
        | Ast.Assign { name; _ } | Ast.Decl { name; _ } ->
          Hashtbl.replace acc name ()
        | _ -> ())
      stmts;
    acc
  in
  let rec scan_list pending stmts = List.iter (scan pending) stmts
  and scan (pending : (string, Token.pos) Hashtbl.t) (s : Ast.stmt) =
    let clear_reads e =
      List.iter (Hashtbl.remove pending) (expr_reads [] e)
    in
    let enter_compound nested =
      Hashtbl.iter (fun n () -> Hashtbl.remove pending n) (mentioned nested);
      (* a fresh table per branch: overwrites inside it are still caught,
         without leaking branch-local state onto the fall-through path *)
      scan_list (Hashtbl.create 16) nested
    in
    match s.sdesc with
    | Ast.Decl { name; init; _ } -> (
      match init with
      | Some e ->
        clear_reads e;
        (match Hashtbl.find_opt pending name with
        | Some pos -> report pos name
        | None -> ());
        Hashtbl.replace pending name s.spos
      | None -> Hashtbl.remove pending name)
    | Ast.Assign { name; value } ->
      clear_reads value;
      (match Hashtbl.find_opt pending name with
      | Some pos -> report pos name
      | None -> ());
      Hashtbl.replace pending name s.spos
    | Ast.Array_assign { index; value; _ } ->
      clear_reads index;
      clear_reads value
    | Ast.Expr_stmt e -> clear_reads e
    | Ast.Return (Some e) -> clear_reads e
    | Ast.Return None -> ()
    | Ast.Block body -> scan_list pending body
    | Ast.If { cond; then_branch; else_branch } ->
      clear_reads cond;
      enter_compound (then_branch @ else_branch)
    | Ast.While { cond; body } ->
      clear_reads cond;
      enter_compound body
    | Ast.Do_while { body; cond } ->
      clear_reads cond;
      enter_compound body
    | Ast.For { init; cond; step; body } ->
      Option.iter (scan pending) init;
      Option.iter clear_reads cond;
      enter_compound (body @ Option.to_list step)
  in
  let top : (string, Token.pos) Hashtbl.t = Hashtbl.create 16 in
  scan_list top f.body;
  (* a value still pending at the end of the function is dead (scalars do
     not outlive main) — but only blame locals, not params or globals *)
  Hashtbl.iter (fun name pos -> if Hashtbl.mem locals name then report pos name) top;
  !diags

(* --- W004 / W005: unreachable code and constant conditions ---------------- *)

let describe_const n = if n <> 0 then "true" else "false"

let constant_condition_rules (f : Ast.func) =
  let diags = ref [] in
  let check_cond (e : Ast.expr) =
    match const_value e with
    | Some n ->
      diags :=
        diag Constant_condition e.epos "condition is always %s"
          (describe_const n)
        :: !diags
    | None -> ()
  in
  iter_stmts
    (fun s ->
      (match s.sdesc with
      | Ast.If { cond; _ } | Ast.While { cond; _ } | Ast.Do_while { cond; _ } ->
        check_cond cond
      | Ast.For { cond = Some cond; _ } -> check_cond cond
      | _ -> ());
      List.iter
        (iter_exprs (fun e ->
             match e.desc with
             | Ast.Ternary (c, _, _) -> check_cond c
             | _ -> ()))
        (stmt_exprs s))
    f.body;
  !diags

let unreachable_rules (f : Ast.func) =
  let diags = ref [] in
  let report (pos : Token.pos) why =
    diags := diag Unreachable_code pos "statement is unreachable (%s)" why :: !diags
  in
  (* does control never continue past this statement? (Mini-C has no
     break: a constant-true loop condition means the loop never exits,
     and a return leaves the function) *)
  let terminal (s : Ast.stmt) =
    match s.sdesc with
    | Ast.Return _ -> Some "follows a return"
    | Ast.While { cond; _ } -> (
      match const_value cond with
      | Some n when n <> 0 -> Some "follows an infinite loop"
      | Some _ | None -> None)
    | Ast.For { cond = None; _ } -> Some "follows an infinite loop"
    | Ast.For { cond = Some c; _ } -> (
      match const_value c with
      | Some n when n <> 0 -> Some "follows an infinite loop"
      | Some _ | None -> None)
    | _ -> None
  in
  let rec scan_list stmts =
    match stmts with
    | [] -> ()
    | s :: rest -> (
      recurse s;
      match (terminal s, rest) with
      | Some why, next :: _ ->
        report next.Ast.spos why;
        (* one report per dead tail; still lint inside it *)
        List.iter recurse rest
      | (Some _ | None), _ -> scan_list rest)
  and recurse (s : Ast.stmt) =
    match s.sdesc with
    | Ast.If { cond; then_branch; else_branch } ->
      (match const_value cond with
      | Some 0 -> (
        match then_branch with
        | s0 :: _ -> report s0.Ast.spos "condition is always false"
        | [] -> ())
      | Some _ -> (
        match else_branch with
        | s0 :: _ -> report s0.Ast.spos "condition is always true"
        | [] -> ())
      | None -> ());
      scan_list then_branch;
      scan_list else_branch
    | Ast.While { cond; body } ->
      (match const_value cond with
      | Some 0 -> (
        match body with
        | s0 :: _ -> report s0.Ast.spos "loop condition is always false"
        | [] -> ())
      | Some _ | None -> ());
      scan_list body
    | Ast.For { cond; body; init; step } ->
      (match cond with
      | Some c -> (
        match const_value c with
        | Some 0 -> (
          match body with
          | s0 :: _ -> report s0.Ast.spos "loop condition is always false"
          | [] -> ())
        | Some _ | None -> ())
      | None -> ());
      Option.iter recurse init;
      Option.iter recurse step;
      scan_list body
    | Ast.Do_while { body; _ } -> scan_list body
    | Ast.Block body -> scan_list body
    | Ast.Decl _ | Ast.Assign _ | Ast.Array_assign _ | Ast.Return _
    | Ast.Expr_stmt _ ->
      ()
  in
  scan_list f.body;
  !diags

(* --- W009: writes to a loop induction variable ---------------------------- *)

let induction_write_rules (f : Ast.func) =
  let diags = ref [] in
  let rec scan stmts = List.iter scan_stmt stmts
  and scan_stmt (s : Ast.stmt) =
    match s.sdesc with
    | Ast.For { init; step; body; _ } ->
      (match step with
      | Some { Ast.sdesc = Ast.Assign { name; _ }; _ } ->
        iter_stmts
          (fun inner ->
            match inner.Ast.sdesc with
            | Ast.Assign { name = n; _ } when n = name ->
              diags :=
                diag Induction_write inner.Ast.spos
                  "loop induction variable %S is written inside the loop body"
                  name
                :: !diags
            | _ -> ())
          body
      | Some _ | None -> ());
      Option.iter scan_stmt init;
      scan body
    | Ast.If { then_branch; else_branch; _ } ->
      scan then_branch;
      scan else_branch
    | Ast.While { body; _ } | Ast.Do_while { body; _ } -> scan body
    | Ast.Block body -> scan body
    | Ast.Decl _ | Ast.Assign _ | Ast.Array_assign _ | Ast.Return _
    | Ast.Expr_stmt _ ->
      ()
  in
  scan f.body;
  !diags

(* --- the syntactic rule set ---------------------------------------------- *)

let check_ast (prog : Ast.program) =
  sort_diags
    (List.concat_map
       (fun f ->
         List.concat
           [
             unused_rules f;
             dead_assignment_rules f;
             constant_condition_rules f;
             unreachable_rules f;
             induction_write_rules f;
           ])
       prog.funcs)

(* --- range-powered rules (W006-W008) -------------------------------------- *)

type range_env = {
  vars : (string, Range.interval) Hashtbl.t;  (* source name -> range *)
  widths : (string, int) Hashtbl.t;  (* declared scalar widths *)
  elem_widths : (string, int) Hashtbl.t;  (* array element widths *)
}

let build_range_env (prog : Ast.program) reports =
  let vars = Hashtbl.create 64 in
  List.iter
    (fun (r : Range.report) ->
      let base = Hypar_minic.Inline.source_name r.var.vname in
      let range =
        match Hashtbl.find_opt vars base with
        | Some prev -> Range.join prev r.range
        | None -> r.range
      in
      Hashtbl.replace vars base range)
    reports;
  let widths = Hashtbl.create 32 in
  let elem_widths = Hashtbl.create 8 in
  List.iter
    (fun g ->
      match g with
      | Ast.Global_scalar { gname; gwidth; _ } ->
        Hashtbl.replace widths gname gwidth
      | Ast.Global_array { gname; gelem_width; _ } ->
        Hashtbl.replace elem_widths gname gelem_width)
    prog.globals;
  List.iter
    (fun (f : Ast.func) ->
      List.iter
        (fun p ->
          match p with
          | Ast.Scalar_param { pname; pwidth } ->
            Hashtbl.replace widths pname pwidth
          | Ast.Array_param { pname; pelem_width } ->
            Hashtbl.replace elem_widths pname pelem_width)
        f.params;
      iter_stmts
        (fun s ->
          match s.Ast.sdesc with
          | Ast.Decl { name; width; _ } -> Hashtbl.replace widths name width
          | _ -> ())
        f.body)
    prog.funcs;
  { vars; widths; elem_widths }

let bool_interval = Range.join (Range.const 0) (Range.const 1)

let rec eval_interval env (e : Ast.expr) : Range.interval =
  match e.desc with
  | Ast.Num n -> Range.const n
  | Ast.Ident x -> (
    match Hashtbl.find_opt env.vars x with
    | Some i -> i
    | None -> (
      match Hashtbl.find_opt env.widths x with
      | Some w -> Range.width_range w
      | None -> Range.top))
  | Ast.Index (arr, _) -> (
    match Hashtbl.find_opt env.elem_widths arr with
    | Some w -> Range.width_range w
    | None -> Range.top)
  | Ast.Call (("min" | "max"), [ a; b ]) ->
    Range.join (eval_interval env a) (eval_interval env b)
  | Ast.Call ("abs", [ a ]) ->
    let i = eval_interval env a in
    Range.join (Range.const 0) (Range.join i (Range.neg i))
  | Ast.Call _ -> Range.top
  | Ast.Unary (Ast.Neg, a) -> Range.neg (eval_interval env a)
  | Ast.Unary (Ast.Bitnot, a) ->
    Range.sub (Range.const (-1)) (eval_interval env a)
  | Ast.Unary (Ast.Lognot, _) -> bool_interval
  | Ast.Ternary (_, t, f) ->
    Range.join (eval_interval env t) (eval_interval env f)
  | Ast.Binary (op, a, b) -> (
    let ia = eval_interval env a and ib = eval_interval env b in
    let open Range in
    match op with
    | Ast.Add -> add ia ib
    | Ast.Sub -> sub ia ib
    | Ast.Mul -> mul ia ib
    | Ast.Div | Ast.Mod ->
      (* magnitude can only shrink; result may be any sign and zero *)
      join (const 0) (join ia (neg ia))
    | Ast.Band ->
      if ia.lo >= 0 && ib.lo >= 0 then { lo = 0; hi = min ia.hi ib.hi }
      else if ia.lo >= 0 then { lo = 0; hi = ia.hi }
      else if ib.lo >= 0 then { lo = 0; hi = ib.hi }
      else top
    | Ast.Bor | Ast.Bxor ->
      if ia.lo >= 0 && ib.lo >= 0 then
        (* no result bit above the operands' highest bit *)
        let m = mul (const 2) (join ia ib) in
        { lo = 0; hi = m.hi }
      else top
    | Ast.Shl ->
      if ib.lo >= 0 && ib.hi <= 45 then
        mul ia { lo = 1 lsl ib.lo; hi = 1 lsl ib.hi }
      else top
    | Ast.Shr ->
      if ia.lo >= 0 && ib.lo >= 0 && ib.lo <= 62 then
        { lo = 0; hi = ia.hi asr ib.lo }
      else top
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Land
    | Ast.Lor ->
      bool_interval)

let interval_rules env (f : Ast.func) =
  let diags = ref [] in
  let on_expr (e : Ast.expr) =
    match e.desc with
    | Ast.Binary ((Ast.Div | Ast.Mod) as op, _, rhs) ->
      let i = eval_interval env rhs in
      if Range.contains i 0 then
        diags :=
          (if i.Range.lo = 0 && i.Range.hi = 0 then
             diag Division_by_zero e.epos
               "right operand of '%s' is always zero" (Ast.binop_name op)
           else
             diag Division_by_zero e.epos
               "right operand of '%s' may be zero (range [%d, %d])"
               (Ast.binop_name op) i.Range.lo i.Range.hi)
          :: !diags
    | Ast.Binary ((Ast.Shl | Ast.Shr) as op, _, rhs) ->
      let i = eval_interval env rhs in
      if i.Range.lo < 0 || i.Range.hi > 31 then
        diags :=
          diag Shift_out_of_range e.epos
            "shift amount of '%s' may be outside 0..31 (range [%d, %d])"
            (Ast.binop_name op) i.Range.lo i.Range.hi
          :: !diags
    | _ -> ()
  in
  iter_stmts
    (fun s -> List.iter (iter_exprs on_expr) (stmt_exprs s))
    f.body;
  !diags

let width_overflow_rules (prog : Ast.program) reports =
  (* first declaration position of each source-level scalar *)
  let decl_pos : (string, Token.pos) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (f : Ast.func) ->
      List.iter
        (fun p ->
          match p with
          | Ast.Scalar_param { pname; _ } ->
            if not (Hashtbl.mem decl_pos pname) then
              Hashtbl.replace decl_pos pname f.fpos
          | Ast.Array_param _ -> ())
        f.params;
      iter_stmts
        (fun s ->
          match s.Ast.sdesc with
          | Ast.Decl { name; _ } ->
            if not (Hashtbl.mem decl_pos name) then
              Hashtbl.replace decl_pos name s.Ast.spos
          | _ -> ())
        f.body)
    prog.funcs;
  let global_names =
    List.filter_map
      (function
        | Ast.Global_scalar { gname; _ } -> Some gname
        | Ast.Global_array _ -> None)
      prog.globals
  in
  (* group overflow reports by source name, join their ranges *)
  let grouped : (string, Range.report) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r : Range.report) ->
      let base = Hypar_minic.Inline.source_name r.var.vname in
      if Hashtbl.mem decl_pos base || List.mem base global_names then
        match Hashtbl.find_opt grouped base with
        | Some prev ->
          Hashtbl.replace grouped base
            { prev with Range.range = Range.join prev.Range.range r.Range.range }
        | None -> Hashtbl.replace grouped base r)
    (List.filter (fun (r : Range.report) -> not r.fits) reports);
  Hashtbl.fold
    (fun base (r : Range.report) acc ->
      let pos =
        match Hashtbl.find_opt decl_pos base with
        | Some p -> p
        | None -> { Token.line = 0; col = 0 }
      in
      diag Width_overflow pos
        "%S (width %d) may overflow: inferred range [%d, %d] exceeds [%d, %d]"
        base r.var.vwidth r.range.Range.lo r.range.Range.hi
        r.declared.Range.lo r.declared.Range.hi
      :: acc)
    grouped []

let range_rules (prog : Ast.program) cdfg =
  let reports = Analyze.register_ranges cdfg in
  let env = build_range_env prog reports in
  List.concat_map (interval_rules env) prog.funcs
  @ width_overflow_rules prog reports

(* --- entry points --------------------------------------------------------- *)

let check ?(name = "program") src =
  match Hypar_minic.Driver.parse src with
  | Error e -> Error (Hypar_ir.Frontend.string_of_error e)
  | Ok ast ->
    let syntactic = check_ast ast in
    let ranged =
      (* the range rules need a semantically valid program; skip them on
         programs that only parse *)
      match
        Hypar_minic.Driver.compile_ast ~name ~simplify:false ~verify_ir:false ast
      with
      | Ok cdfg -> range_rules ast cdfg
      | Error _ | (exception _) -> []
    in
    Ok (sort_diags (syntactic @ ranged))
