exception Recursive of string

type ctx = {
  funcs : (string, Ast.func) Hashtbl.t;
  mutable counter : int;
}

let fresh ctx base =
  ctx.counter <- ctx.counter + 1;
  Printf.sprintf "%s__%d" base ctx.counter

(* the inverse of [fresh]: drop one trailing [__N] *)
let source_name name =
  let len = String.length name in
  let is_digit c = c >= '0' && c <= '9' in
  match String.rindex_opt name '_' with
  | Some i
    when len >= 4 && i >= 1 && i + 1 < len && name.[i - 1] = '_'
         && String.for_all is_digit (String.sub name (i + 1) (len - i - 1)) ->
    String.sub name 0 (i - 1)
  | _ -> name

(* --- renaming --------------------------------------------------------- *)

type rename_scope = (string, string) Hashtbl.t list

let rename_lookup (scope : rename_scope) name =
  let rec walk = function
    | [] -> name
    | tbl :: rest -> (
      match Hashtbl.find_opt tbl name with Some n -> n | None -> walk rest)
  in
  walk scope

let rec rename_expr scope (e : Ast.expr) =
  let desc =
    match e.Ast.desc with
    | Ast.Num n -> Ast.Num n
    | Ast.Ident name -> Ast.Ident (rename_lookup scope name)
    | Ast.Index (arr, ix) -> Ast.Index (rename_lookup scope arr, rename_expr scope ix)
    | Ast.Call (f, args) -> Ast.Call (f, List.map (rename_expr scope) args)
    | Ast.Unary (op, a) -> Ast.Unary (op, rename_expr scope a)
    | Ast.Binary (op, a, b) ->
      Ast.Binary (op, rename_expr scope a, rename_expr scope b)
    | Ast.Ternary (a, b, c) ->
      Ast.Ternary (rename_expr scope a, rename_expr scope b, rename_expr scope c)
  in
  { e with Ast.desc }

let rec rename_stmt ctx scope (s : Ast.stmt) =
  let sdesc =
    match s.Ast.sdesc with
    | Ast.Decl { name; width; init } ->
      let init = Option.map (rename_expr scope) init in
      let name' = fresh ctx name in
      (match scope with
      | tbl :: _ -> Hashtbl.replace tbl name name'
      | [] -> assert false);
      Ast.Decl { name = name'; width; init }
    | Ast.Assign { name; value } ->
      Ast.Assign { name = rename_lookup scope name; value = rename_expr scope value }
    | Ast.Array_assign { arr; index; value } ->
      Ast.Array_assign
        {
          arr = rename_lookup scope arr;
          index = rename_expr scope index;
          value = rename_expr scope value;
        }
    | Ast.If { cond; then_branch; else_branch } ->
      Ast.If
        {
          cond = rename_expr scope cond;
          then_branch = rename_stmts ctx scope then_branch;
          else_branch = rename_stmts ctx scope else_branch;
        }
    | Ast.While { cond; body } ->
      Ast.While { cond = rename_expr scope cond; body = rename_stmts ctx scope body }
    | Ast.Do_while { body; cond } ->
      Ast.Do_while { body = rename_stmts ctx scope body; cond = rename_expr scope cond }
    | Ast.For { init; cond; step; body } ->
      let inner = Hashtbl.create 4 :: scope in
      let init = Option.map (rename_stmt ctx inner) init in
      let cond = Option.map (rename_expr inner) cond in
      let body = rename_stmts ctx inner body in
      let step = Option.map (rename_stmt ctx inner) step in
      Ast.For { init; cond; step; body }
    | Ast.Return v -> Ast.Return (Option.map (rename_expr scope) v)
    | Ast.Expr_stmt e -> Ast.Expr_stmt (rename_expr scope e)
    | Ast.Block body -> Ast.Block (rename_stmts ctx scope body)
  in
  { s with Ast.sdesc }

and rename_stmts ctx scope stmts =
  let inner = Hashtbl.create 8 :: scope in
  List.map (rename_stmt ctx inner) stmts

(* --- inlining --------------------------------------------------------- *)

(* [inline_call ctx stack pos f args] returns the statements computing the
   call and, when the callee returns a value, the name of the temporary
   holding the result. Arguments have already been call-extracted. *)
let rec inline_call ctx stack pos (f : Ast.func) args =
  if List.mem f.Ast.fname stack then raise (Recursive f.Ast.fname);
  let stack = f.Ast.fname :: stack in
  (* Bind parameters. *)
  let scope = [ Hashtbl.create 8 ] in
  let binding_stmts =
    List.concat
      (List.map2
         (fun param (arg : Ast.expr) ->
           match param with
           | Ast.Scalar_param { pname; pwidth } ->
             let tmp = fresh ctx (f.Ast.fname ^ "_" ^ pname) in
             (match scope with
             | tbl :: _ -> Hashtbl.replace tbl pname tmp
             | [] -> assert false);
             [ { Ast.sdesc = Ast.Decl { name = tmp; width = pwidth; init = Some arg };
                 spos = pos } ]
           | Ast.Array_param { pname; _ } ->
             let actual =
               match arg.Ast.desc with
               | Ast.Ident name -> name
               | _ -> invalid_arg "inline: array argument is not a name"
             in
             (match scope with
             | tbl :: _ -> Hashtbl.replace tbl pname actual
             | [] -> assert false);
             [])
         f.Ast.params args)
  in
  let body = rename_stmts ctx scope f.Ast.body in
  if f.Ast.returns_value then begin
    match List.rev body with
    | { Ast.sdesc = Ast.Return (Some ret_expr); spos } :: rev_rest ->
      let body_no_ret = List.rev rev_rest in
      let inlined = inline_stmts ctx stack (body_no_ret) in
      let ret_tmp = fresh ctx (f.Ast.fname ^ "_ret") in
      let prelude_of_ret, ret_expr = extract_calls ctx stack ret_expr in
      ( binding_stmts @ inlined @ prelude_of_ret
        @ [ { Ast.sdesc = Ast.Decl { name = ret_tmp; width = 32; init = Some ret_expr };
              spos } ],
        Some ret_tmp )
    | _ -> invalid_arg "inline: missing trailing return"
  end
  else (binding_stmts @ inline_stmts ctx stack body, None)

(* Replace every call in [e] by a temporary computed by prelude
   statements (callee bodies are spliced recursively). *)
and extract_calls ctx stack (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Num _ | Ast.Ident _ -> ([], e)
  | Ast.Index (arr, ix) ->
    let p, ix = extract_calls ctx stack ix in
    (p, { e with Ast.desc = Ast.Index (arr, ix) })
  | Ast.Unary (op, a) ->
    let p, a = extract_calls ctx stack a in
    (p, { e with Ast.desc = Ast.Unary (op, a) })
  | Ast.Binary (op, a, b) ->
    let pa, a = extract_calls ctx stack a in
    let pb, b = extract_calls ctx stack b in
    (pa @ pb, { e with Ast.desc = Ast.Binary (op, a, b) })
  | Ast.Ternary (a, b, c) ->
    let pa, a = extract_calls ctx stack a in
    let pb, b = extract_calls ctx stack b in
    let pc, c = extract_calls ctx stack c in
    (pa @ pb @ pc, { e with Ast.desc = Ast.Ternary (a, b, c) })
  | Ast.Call (fname, args) when List.mem fname Ast.builtins ->
    let preludes, args =
      List.split (List.map (extract_calls ctx stack) args)
    in
    (List.concat preludes, { e with Ast.desc = Ast.Call (fname, args) })
  | Ast.Call (fname, args) -> (
    let preludes, args = List.split (List.map (extract_calls ctx stack) args) in
    let f =
      match Hashtbl.find_opt ctx.funcs fname with
      | Some f -> f
      | None -> invalid_arg ("inline: unknown function " ^ fname)
    in
    let call_stmts, ret = inline_call ctx stack e.Ast.epos f args in
    match ret with
    | Some tmp ->
      ( List.concat preludes @ call_stmts,
        { e with Ast.desc = Ast.Ident tmp } )
    | None -> invalid_arg ("inline: void call in expression " ^ fname))

and inline_stmt ctx stack (s : Ast.stmt) : Ast.stmt list =
  let with_prelude prelude sdesc = prelude @ [ { s with Ast.sdesc } ] in
  match s.Ast.sdesc with
  | Ast.Decl { name; width; init } -> (
    match init with
    | None -> [ s ]
    | Some e ->
      let p, e = extract_calls ctx stack e in
      with_prelude p (Ast.Decl { name; width; init = Some e }))
  | Ast.Assign { name; value } ->
    let p, value = extract_calls ctx stack value in
    with_prelude p (Ast.Assign { name; value })
  | Ast.Array_assign { arr; index; value } ->
    let pi, index = extract_calls ctx stack index in
    let pv, value = extract_calls ctx stack value in
    with_prelude (pi @ pv) (Ast.Array_assign { arr; index; value })
  | Ast.If { cond; then_branch; else_branch } ->
    let p, cond = extract_calls ctx stack cond in
    with_prelude p
      (Ast.If
         {
           cond;
           then_branch = inline_stmts ctx stack then_branch;
           else_branch = inline_stmts ctx stack else_branch;
         })
  | Ast.While { cond; body } ->
    (* Calls in loop conditions would need body duplication; typecheckable
       programs in this codebase avoid them, and we reject them here. *)
    if Ast.expr_calls cond <> [] then
      invalid_arg "inline: call in while-condition is not supported";
    [ { s with Ast.sdesc = Ast.While { cond; body = inline_stmts ctx stack body } } ]
  | Ast.Do_while { body; cond } ->
    if Ast.expr_calls cond <> [] then
      invalid_arg "inline: call in do-while-condition is not supported";
    [ { s with Ast.sdesc = Ast.Do_while { body = inline_stmts ctx stack body; cond } } ]
  | Ast.For { init; cond; step; body } ->
    (match cond with
    | Some c when Ast.expr_calls c <> [] ->
      invalid_arg "inline: call in for-condition is not supported"
    | _ -> ());
    let init_stmts, init' =
      match init with
      | None -> ([], None)
      | Some s0 -> (
        match inline_stmt ctx stack s0 with
        | [] -> ([], None)
        | [ single ] -> ([], Some single)
        | multi -> (
          (* calls in the init: hoist the prelude before the loop *)
          match List.rev multi with
          | last :: rev_prefix -> (List.rev rev_prefix, Some last)
          | [] -> assert false))
    in
    let step' =
      match step with
      | None -> None
      | Some s0 -> (
        match inline_stmt ctx stack s0 with
        | [ single ] -> Some single
        | _ -> invalid_arg "inline: call in for-step is not supported")
    in
    init_stmts
    @ [ { s with
          Ast.sdesc =
            Ast.For { init = init'; cond; step = step'; body = inline_stmts ctx stack body } } ]
  | Ast.Return v -> (
    match v with
    | None -> [ s ]
    | Some e ->
      let p, e = extract_calls ctx stack e in
      with_prelude p (Ast.Return (Some e)))
  | Ast.Expr_stmt e -> (
    match e.Ast.desc with
    | Ast.Call (fname, args) when not (List.mem fname Ast.builtins) -> (
      let preludes, args = List.split (List.map (extract_calls ctx stack) args) in
      match Hashtbl.find_opt ctx.funcs fname with
      | None -> invalid_arg ("inline: unknown function " ^ fname)
      | Some f ->
        let call_stmts, _ret = inline_call ctx stack e.Ast.epos f args in
        List.concat preludes @ call_stmts)
    | _ ->
      let p, e = extract_calls ctx stack e in
      with_prelude p (Ast.Expr_stmt e))
  | Ast.Block body -> [ { s with Ast.sdesc = Ast.Block (inline_stmts ctx stack body) } ]

and inline_stmts ctx stack stmts = List.concat_map (inline_stmt ctx stack) stmts

let program (prog : Ast.program) =
  let funcs = Hashtbl.create 16 in
  List.iter (fun (f : Ast.func) -> Hashtbl.replace funcs f.Ast.fname f) prog.funcs;
  let ctx = { funcs; counter = 0 } in
  let main =
    match Hashtbl.find_opt funcs "main" with
    | Some f -> f
    | None -> invalid_arg "inline: no main function"
  in
  (* Rename main's own locals apart first: lowering maps source names to
     registers globally, so shadowed declarations must not collide. *)
  let renamed = rename_stmts ctx [ Hashtbl.create 8 ] main.Ast.body in
  let body = inline_stmts ctx [ "main" ] renamed in
  { prog with Ast.funcs = [ { main with Ast.body } ] }
