exception Error of { pos : Token.pos; msg : string }

let error pos fmt = Format.kasprintf (fun msg -> raise (Error { pos; msg })) fmt

(* The parser walks the token list itself; the list always ends with
   [Eof], which [next] returns without consuming. *)
type state = { mutable toks : Token.located list }

let peek st = List.hd st.toks
let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> peek st

let next st =
  match st.toks with
  | t :: (_ :: _ as rest) ->
    st.toks <- rest;
    t
  | _ -> peek st

(* The [tok] that [is], [expect] and [accept] test for is always a
   constant constructor, so physical equality compares constructors. *)
let is st tok = (peek st).Token.tok == tok

let expect st tok =
  let t = next st in
  if t.Token.tok != tok then
    error t.Token.pos "expected %s but found %s" (Token.describe tok)
      (Token.describe t.Token.tok)

let accept st tok =
  if is st tok then begin
    ignore (next st);
    true
  end
  else false

let expect_ident st =
  let t = next st in
  match t.Token.tok with
  | Token.Ident s -> (s, t.Token.pos)
  | other -> error t.Token.pos "expected identifier, found %s" (Token.describe other)

let expect_int st =
  let t = next st in
  match t.Token.tok with
  | Token.Int_lit n -> n
  | Token.Minus -> (
    let t2 = next st in
    match t2.Token.tok with
    | Token.Int_lit n -> -n
    | other ->
      error t2.Token.pos "expected integer, found %s" (Token.describe other))
  | other -> error t.Token.pos "expected integer, found %s" (Token.describe other)

let width_of_kw = function
  | Token.Kw_int8 -> Some 8
  | Token.Kw_int -> Some 16
  | Token.Kw_int32 -> Some 32
  | _ -> None

(* --- expressions ------------------------------------------------------ *)

(* The precedence level of a binary operator token, loosest ([||]) first;
   level 0 marks a token that is no binary operator. *)
let binop = function
  | Token.Bar_bar -> (1, Ast.Lor)
  | Token.Amp_amp -> (2, Ast.Land)
  | Token.Bar -> (3, Ast.Bor)
  | Token.Caret -> (4, Ast.Bxor)
  | Token.Amp -> (5, Ast.Band)
  | Token.Eq_eq -> (6, Ast.Eq)
  | Token.Bang_eq -> (6, Ast.Ne)
  | Token.Lt -> (7, Ast.Lt)
  | Token.Le -> (7, Ast.Le)
  | Token.Gt -> (7, Ast.Gt)
  | Token.Ge -> (7, Ast.Ge)
  | Token.Shl -> (8, Ast.Shl)
  | Token.Shr -> (8, Ast.Shr)
  | Token.Plus -> (9, Ast.Add)
  | Token.Minus -> (9, Ast.Sub)
  | Token.Star -> (10, Ast.Mul)
  | Token.Slash -> (10, Ast.Div)
  | Token.Percent -> (10, Ast.Mod)
  | _ -> (0, Ast.Add)

let mk pos desc = { Ast.desc; epos = pos }

let rec parse_expr st = parse_ternary st

and parse_ternary st =
  let cond = parse_binary st 1 in
  if accept st Token.Question then begin
    let t = parse_expr st in
    expect st Token.Colon;
    let f = parse_ternary st in
    mk cond.Ast.epos (Ast.Ternary (cond, t, f))
  end
  else cond

(* Precedence climbing: the operands of a level-[l] operator bind at
   level [l + 1] or tighter, so every level is left-associative. *)
and parse_binary st min_level = climb st min_level (parse_unary st)

and climb st min_level lhs =
  let level, op = binop (peek st).Token.tok in
  if level < min_level then lhs
  else begin
    ignore (next st);
    let rhs = parse_binary st (level + 1) in
    climb st min_level (mk lhs.Ast.epos (Ast.Binary (op, lhs, rhs)))
  end

and parse_unary st =
  let t = peek st in
  match t.Token.tok with
  | Token.Minus ->
    ignore (next st);
    mk t.Token.pos (Ast.Unary (Ast.Neg, parse_unary st))
  | Token.Bang ->
    ignore (next st);
    mk t.Token.pos (Ast.Unary (Ast.Lognot, parse_unary st))
  | Token.Tilde ->
    ignore (next st);
    mk t.Token.pos (Ast.Unary (Ast.Bitnot, parse_unary st))
  | Token.Plus ->
    ignore (next st);
    parse_unary st
  | _ -> parse_primary st

and parse_primary st =
  let t = next st in
  match t.Token.tok with
  | Token.Int_lit n -> mk t.Token.pos (Ast.Num n)
  | Token.Lparen ->
    let e = parse_expr st in
    expect st Token.Rparen;
    e
  | Token.Ident name -> (
    match (peek st).Token.tok with
    | Token.Lbracket ->
      ignore (next st);
      let ix = parse_expr st in
      expect st Token.Rbracket;
      mk t.Token.pos (Ast.Index (name, ix))
    | Token.Lparen ->
      ignore (next st);
      let args =
        if is st Token.Rparen then []
        else
          let rec more acc =
            let e = parse_expr st in
            if accept st Token.Comma then more (e :: acc)
            else List.rev (e :: acc)
          in
          more []
      in
      expect st Token.Rparen;
      mk t.Token.pos (Ast.Call (name, args))
    | _ -> mk t.Token.pos (Ast.Ident name))
  | other ->
    error t.Token.pos "expected expression, found %s" (Token.describe other)

(* --- statements ------------------------------------------------------- *)

let mk_stmt pos sdesc = { Ast.sdesc; spos = pos }

(* Compound assignments desugar in the parser: [x op= e] becomes
   [x = x op e]; for array stores the (pure) index is duplicated. *)
let compound_op = function
  | Token.Plus_assign -> Some Ast.Add
  | Token.Minus_assign -> Some Ast.Sub
  | Token.Star_assign -> Some Ast.Mul
  | Token.Shl_assign -> Some Ast.Shl
  | Token.Shr_assign -> Some Ast.Shr
  | Token.Amp_assign -> Some Ast.Band
  | Token.Bar_assign -> Some Ast.Bor
  | Token.Caret_assign -> Some Ast.Bxor
  | _ -> None

(* A "simple" statement: declaration, assignment (plain, compound, ++/--),
   array store or call — no trailing ';' (used for 'for' init/step and
   reused with ';' for ordinary statements). *)
let rec parse_simple_stmt st =
  let t = peek st in
  match width_of_kw t.Token.tok with
  | Some width ->
    ignore (next st);
    let name, pos = expect_ident st in
    let init = if accept st Token.Assign then Some (parse_expr st) else None in
    mk_stmt pos (Ast.Decl { name; width; init })
  | None -> (
    match (t.Token.tok, (peek2 st).Token.tok) with
    | Token.Ident name, Token.Assign ->
      ignore (next st);
      ignore (next st);
      let value = parse_expr st in
      mk_stmt t.Token.pos (Ast.Assign { name; value })
    | Token.Ident name, op_tok when Option.is_some (compound_op op_tok) ->
      ignore (next st);
      ignore (next st);
      let op = Option.get (compound_op op_tok) in
      let rhs = parse_expr st in
      let value =
        mk t.Token.pos (Ast.Binary (op, mk t.Token.pos (Ast.Ident name), rhs))
      in
      mk_stmt t.Token.pos (Ast.Assign { name; value })
    | Token.Ident name, (Token.Plus_plus | Token.Minus_minus) ->
      ignore (next st);
      let op_tok = (next st).Token.tok in
      let op = if op_tok == Token.Plus_plus then Ast.Add else Ast.Sub in
      let value =
        mk t.Token.pos
          (Ast.Binary (op, mk t.Token.pos (Ast.Ident name), mk t.Token.pos (Ast.Num 1)))
      in
      mk_stmt t.Token.pos (Ast.Assign { name; value })
    | Token.Ident arr, Token.Lbracket ->
      (* A store "a[i] = e" / "a[i] op= e" / "a[i]++", or an expression
         starting with a[i]. *)
      let save = st.toks in
      ignore (next st);
      ignore (next st);
      let index = parse_expr st in
      expect st Token.Rbracket;
      let store_of value = mk_stmt t.Token.pos (Ast.Array_assign { arr; index; value }) in
      let elem () = mk t.Token.pos (Ast.Index (arr, index)) in
      (match (peek st).Token.tok with
      | Token.Assign ->
        ignore (next st);
        store_of (parse_expr st)
      | (Token.Plus_plus | Token.Minus_minus) as current ->
        ignore (next st);
        let op = if current == Token.Plus_plus then Ast.Add else Ast.Sub in
        store_of (mk t.Token.pos (Ast.Binary (op, elem (), mk t.Token.pos (Ast.Num 1))))
      | current -> (
        match compound_op current with
        | Some op ->
          ignore (next st);
          let rhs = parse_expr st in
          store_of (mk t.Token.pos (Ast.Binary (op, elem (), rhs)))
        | None ->
          st.toks <- save;
          let e = parse_expr st in
          mk_stmt t.Token.pos (Ast.Expr_stmt e)))
    | _ ->
      let e = parse_expr st in
      mk_stmt t.Token.pos (Ast.Expr_stmt e))

and parse_stmt st =
  let t = peek st in
  match t.Token.tok with
  | Token.Lbrace -> mk_stmt t.Token.pos (Ast.Block (parse_block st))
  | Token.Kw_if ->
    ignore (next st);
    expect st Token.Lparen;
    let cond = parse_expr st in
    expect st Token.Rparen;
    let then_branch = parse_branch st in
    let else_branch =
      if accept st Token.Kw_else then parse_branch st else []
    in
    mk_stmt t.Token.pos (Ast.If { cond; then_branch; else_branch })
  | Token.Kw_while ->
    ignore (next st);
    expect st Token.Lparen;
    let cond = parse_expr st in
    expect st Token.Rparen;
    let body = parse_branch st in
    mk_stmt t.Token.pos (Ast.While { cond; body })
  | Token.Kw_do ->
    ignore (next st);
    let body = parse_branch st in
    let kw = next st in
    if kw.Token.tok != Token.Kw_while then
      error kw.Token.pos "expected 'while' after 'do' body";
    expect st Token.Lparen;
    let cond = parse_expr st in
    expect st Token.Rparen;
    expect st Token.Semi;
    mk_stmt t.Token.pos (Ast.Do_while { body; cond })
  | Token.Kw_for ->
    ignore (next st);
    expect st Token.Lparen;
    let init =
      if is st Token.Semi then None else Some (parse_simple_stmt st)
    in
    expect st Token.Semi;
    let cond =
      if is st Token.Semi then None else Some (parse_expr st)
    in
    expect st Token.Semi;
    let step =
      if is st Token.Rparen then None
      else Some (parse_simple_stmt st)
    in
    expect st Token.Rparen;
    let body = parse_branch st in
    mk_stmt t.Token.pos (Ast.For { init; cond; step; body })
  | Token.Kw_return ->
    ignore (next st);
    let value =
      if is st Token.Semi then None else Some (parse_expr st)
    in
    expect st Token.Semi;
    mk_stmt t.Token.pos (Ast.Return value)
  | _ ->
    let s = parse_simple_stmt st in
    expect st Token.Semi;
    s

and parse_branch st =
  if is st Token.Lbrace then parse_block st else [ parse_stmt st ]

and parse_block st =
  expect st Token.Lbrace;
  let rec stmts acc =
    if accept st Token.Rbrace then List.rev acc else stmts (parse_stmt st :: acc)
  in
  stmts []

(* --- top level --------------------------------------------------------- *)

let parse_params st =
  expect st Token.Lparen;
  if accept st Token.Rparen then []
  else begin
    let rec more acc =
      let t = next st in
      match width_of_kw t.Token.tok with
      | Some width ->
        let name, _ = expect_ident st in
        let param =
          if accept st Token.Lbracket then begin
            expect st Token.Rbracket;
            Ast.Array_param { pname = name; pelem_width = width }
          end
          else Ast.Scalar_param { pname = name; pwidth = width }
        in
        if accept st Token.Comma then more (param :: acc)
        else begin
          expect st Token.Rparen;
          List.rev (param :: acc)
        end
      | None ->
        error t.Token.pos "expected parameter type, found %s"
          (Token.describe t.Token.tok)
    in
    more []
  end

let parse_array_init st =
  expect st Token.Lbrace;
  if accept st Token.Rbrace then []
  else begin
    let rec more acc =
      let n = expect_int st in
      if accept st Token.Comma then
        if is st Token.Rbrace then begin
          ignore (next st);
          List.rev (n :: acc)
        end
        else more (n :: acc)
      else begin
        expect st Token.Rbrace;
        List.rev (n :: acc)
      end
    in
    more []
  end

let parse_top_level st =
  let t = peek st in
  let is_const = t.Token.tok == Token.Kw_const in
  if is_const then ignore (next st);
  let t = next st in
  match (width_of_kw t.Token.tok, t.Token.tok) with
  | Some width, _ -> (
    let name, pos = expect_ident st in
    match (peek st).Token.tok with
    | Token.Lparen ->
      if is_const then error pos "functions cannot be 'const'";
      let params = parse_params st in
      let body = parse_block st in
      `Func { Ast.fname = name; params; returns_value = true; body; fpos = pos }
    | Token.Lbracket ->
      ignore (next st);
      let size = expect_int st in
      expect st Token.Rbracket;
      let ginit =
        if accept st Token.Assign then Some (parse_array_init st) else None
      in
      expect st Token.Semi;
      `Global
        (Ast.Global_array
           { gname = name; size; ginit; is_const; gelem_width = width })
    | Token.Assign ->
      ignore (next st);
      let v = expect_int st in
      expect st Token.Semi;
      `Global (Ast.Global_scalar { gname = name; gwidth = width; gvalue = Some v })
    | Token.Semi ->
      ignore (next st);
      `Global (Ast.Global_scalar { gname = name; gwidth = width; gvalue = None })
    | other ->
      error pos "unexpected %s after global declaration" (Token.describe other))
  | None, Token.Kw_void ->
    let name, pos = expect_ident st in
    let params = parse_params st in
    let body = parse_block st in
    `Func { Ast.fname = name; params; returns_value = false; body; fpos = pos }
  | None, other ->
    error t.Token.pos "expected a declaration, found %s" (Token.describe other)

let parse_program src =
  let st = { toks = Lexer.tokenize src } in
  let rec go globals funcs =
    if is st Token.Eof then
      { Ast.globals = List.rev globals; funcs = List.rev funcs }
    else
      match parse_top_level st with
      | `Global g -> go (g :: globals) funcs
      | `Func f -> go globals (f :: funcs)
  in
  go [] []

let parse_expr_string src =
  let st = { toks = Lexer.tokenize src } in
  let e = parse_expr st in
  expect st Token.Eof;
  e
