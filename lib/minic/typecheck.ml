type error = { pos : Token.pos; msg : string }

exception Err of error

let fail pos fmt = Format.kasprintf (fun msg -> raise (Err { pos; msg })) fmt

type binding = Scalar | Array of { is_const : bool }

type env = {
  funcs : (string, Ast.func) Hashtbl.t;
  globals : (string, binding) Hashtbl.t;
}

let build_env (prog : Ast.program) =
  let funcs = Hashtbl.create 16 in
  let globals = Hashtbl.create 16 in
  List.iter
    (fun g ->
      match g with
      | Ast.Global_array { gname; size; ginit; is_const; _ } ->
        if Hashtbl.mem globals gname then
          fail { Token.line = 0; col = 0 } "duplicate global %S" gname;
        if size <= 0 then
          fail { Token.line = 0; col = 0 } "array %S has non-positive size" gname;
        (match ginit with
        | Some init when List.length init > size ->
          fail { Token.line = 0; col = 0 }
            "array %S: %d initialisers for size %d" gname (List.length init) size
        | _ -> ());
        if is_const && ginit = None then
          fail { Token.line = 0; col = 0 } "const array %S lacks an initialiser"
            gname;
        Hashtbl.replace globals gname (Array { is_const })
      | Ast.Global_scalar { gname; _ } ->
        if Hashtbl.mem globals gname then
          fail { Token.line = 0; col = 0 } "duplicate global %S" gname;
        Hashtbl.replace globals gname Scalar)
    prog.globals;
  List.iter
    (fun (f : Ast.func) ->
      if Hashtbl.mem funcs f.fname then fail f.fpos "duplicate function %S" f.fname;
      if List.mem f.fname Ast.builtins then
        fail f.fpos "function %S shadows a builtin" f.fname;
      if Hashtbl.mem globals f.fname then
        fail f.fpos "function %S shadows a global" f.fname;
      Hashtbl.replace funcs f.fname f)
    prog.funcs;
  { funcs; globals }

(* Scopes: a stack of hash tables; lookup walks outward. *)
type scope = (string, binding) Hashtbl.t list

let lookup env (scope : scope) name =
  let rec walk = function
    | [] -> Hashtbl.find_opt env.globals name
    | tbl :: rest -> (
      match Hashtbl.find_opt tbl name with Some b -> Some b | None -> walk rest)
  in
  walk scope

let rec check_scalar_expr env scope (e : Ast.expr) =
  match e.desc with
  | Ast.Num _ -> ()
  | Ast.Ident name -> (
    match lookup env scope name with
    | Some Scalar -> ()
    | Some (Array _) ->
      fail e.epos "array %S used where a scalar value is expected" name
    | None -> fail e.epos "undeclared variable %S" name)
  | Ast.Index (arr, ix) ->
    (match lookup env scope arr with
    | Some (Array _) -> ()
    | Some Scalar -> fail e.epos "scalar %S indexed like an array" arr
    | None -> fail e.epos "undeclared array %S" arr);
    check_scalar_expr env scope ix
  | Ast.Call (fname, args) ->
    if List.mem fname Ast.builtins then begin
      let arity = if fname = "abs" then 1 else 2 in
      if List.length args <> arity then
        fail e.epos "builtin %S expects %d argument(s), got %d" fname arity
          (List.length args);
      List.iter (check_scalar_expr env scope) args
    end
    else begin
      match Hashtbl.find_opt env.funcs fname with
      | None -> fail e.epos "call to undefined function %S" fname
      | Some f ->
        if not f.returns_value then
          fail e.epos "void function %S used in an expression" fname;
        check_call env scope e.epos f args
    end
  | Ast.Unary (_, a) -> check_scalar_expr env scope a
  | Ast.Binary (_, a, b) ->
    check_scalar_expr env scope a;
    check_scalar_expr env scope b
  | Ast.Ternary (a, b, c) ->
    check_scalar_expr env scope a;
    check_scalar_expr env scope b;
    check_scalar_expr env scope c

and check_call env scope pos (f : Ast.func) args =
  if List.length args <> List.length f.params then
    fail pos "function %S expects %d argument(s), got %d" f.fname
      (List.length f.params) (List.length args);
  List.iter2
    (fun param (arg : Ast.expr) ->
      match param with
      | Ast.Scalar_param _ -> check_scalar_expr env scope arg
      | Ast.Array_param _ -> (
        match arg.desc with
        | Ast.Ident name -> (
          match lookup env scope name with
          | Some (Array _) -> ()
          | Some Scalar ->
            fail arg.epos "scalar %S passed for array parameter" name
          | None -> fail arg.epos "undeclared array %S" name)
        | _ -> fail arg.epos "array arguments must be bare array names"))
    f.params args

let rec check_stmt env scope (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Decl { name; init; _ } ->
    (match init with Some e -> check_scalar_expr env scope e | None -> ());
    let top =
      match scope with
      | tbl :: _ -> tbl
      | [] -> fail s.spos "internal: empty scope"
    in
    if Hashtbl.mem top name then
      fail s.spos "variable %S redeclared in the same scope" name;
    Hashtbl.replace top name Scalar
  | Ast.Assign { name; value } ->
    (match lookup env scope name with
    | Some Scalar -> ()
    | Some (Array _) -> fail s.spos "cannot assign to array %S" name
    | None -> fail s.spos "assignment to undeclared variable %S" name);
    check_scalar_expr env scope value
  | Ast.Array_assign { arr; index; value } ->
    (match lookup env scope arr with
    | Some (Array { is_const }) ->
      if is_const then fail s.spos "store to const array %S" arr
    | Some Scalar -> fail s.spos "scalar %S indexed like an array" arr
    | None -> fail s.spos "store to undeclared array %S" arr);
    check_scalar_expr env scope index;
    check_scalar_expr env scope value
  | Ast.If { cond; then_branch; else_branch } ->
    check_scalar_expr env scope cond;
    check_stmts env scope then_branch;
    check_stmts env scope else_branch
  | Ast.While { cond; body } ->
    check_scalar_expr env scope cond;
    check_stmts env scope body
  | Ast.Do_while { body; cond } ->
    check_stmts env scope body;
    check_scalar_expr env scope cond
  | Ast.For { init; cond; step; body } ->
    let inner = Hashtbl.create 4 :: scope in
    (match init with Some s0 -> check_stmt env inner s0 | None -> ());
    (match cond with Some e -> check_scalar_expr env inner e | None -> ());
    check_stmts env inner body;
    (match step with Some s0 -> check_stmt env inner s0 | None -> ())
  | Ast.Return value -> (
    match value with Some e -> check_scalar_expr env scope e | None -> ())
  | Ast.Expr_stmt e -> (
    (* statement calls may be void; anything else must still scope-check *)
    match e.desc with
    | Ast.Call (fname, args) when not (List.mem fname Ast.builtins) -> (
      match Hashtbl.find_opt env.funcs fname with
      | None -> fail e.epos "call to undefined function %S" fname
      | Some f -> check_call env scope e.epos f args)
    | _ -> check_scalar_expr env scope e)
  | Ast.Block body -> check_stmts env scope body

and check_stmts env scope stmts =
  let inner = Hashtbl.create 8 :: scope in
  List.iter (check_stmt env inner) stmts

(* Count/locate return statements to enforce the single-trailing-return
   shape the inliner relies on. *)
let rec returns_in stmts =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s.sdesc with
      | Ast.Return v -> [ (s.spos, v) ]
      | Ast.If { then_branch; else_branch; _ } ->
        returns_in then_branch @ returns_in else_branch
      | Ast.While { body; _ } | Ast.Do_while { body; _ } -> returns_in body
      | Ast.For { body; _ } -> returns_in body
      | Ast.Block body -> returns_in body
      | Ast.Decl _ | Ast.Assign _ | Ast.Array_assign _ | Ast.Expr_stmt _ -> [])
    stmts

let check_func env (f : Ast.func) =
  let scope = [ Hashtbl.create 8 ] in
  List.iter
    (fun p ->
      match p with
      | Ast.Scalar_param { pname; _ } ->
        (match scope with
        | tbl :: _ -> Hashtbl.replace tbl pname Scalar
        | [] -> assert false)
      | Ast.Array_param { pname; _ } -> (
        match scope with
        | tbl :: _ -> Hashtbl.replace tbl pname (Array { is_const = false })
        | [] -> assert false))
    f.params;
  check_stmts env scope f.body;
  let rets = returns_in f.body in
  if f.returns_value then begin
    match rets with
    | [ (_, Some _) ] -> (
      (* must also be the last top-level statement *)
      match List.rev f.body with
      | { Ast.sdesc = Ast.Return (Some _); _ } :: _ -> ()
      | _ ->
        fail f.fpos
          "function %S: the single 'return' must be the last statement"
          f.fname)
    | [] -> fail f.fpos "function %S must return a value" f.fname
    | [ (pos, None) ] -> fail pos "function %S must return a value" f.fname
    | _ :: _ :: _ ->
      fail f.fpos "function %S has multiple returns (one trailing return only)"
        f.fname
  end
  else
    match rets with
    | [] -> ()
    | (pos, _) :: _ -> fail pos "void function %S cannot contain 'return'" f.fname

let check prog =
  try
    let env = build_env prog in
    List.iter (check_func env) prog.funcs;
    (match Hashtbl.find_opt env.funcs "main" with
    | None -> fail { Token.line = 0; col = 0 } "program lacks a 'main' function"
    | Some f ->
      if f.params <> [] then fail f.fpos "'main' must take no parameters");
    Ok ()
  with Err e -> Error e
