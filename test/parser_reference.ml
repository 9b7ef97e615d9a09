(* Reference oracle for the Mini-C frontend's first stage: the lexer and
   recursive-descent parser as they were before the parser walked the
   token list and climbed one precedence table, kept here to cross-check
   the library on generated and mutated programs.  One deliberate change
   from that code: a hexadecimal literal above [max_int] is refused like
   an out-of-range decimal one instead of wrapping. *)

module Token = Hypar_minic.Token
module Ast = Hypar_minic.Ast

module Lexer = struct
  exception Error of { pos : Token.pos; msg : string }

  let error pos fmt = Format.kasprintf (fun msg -> raise (Error { pos; msg })) fmt

  let keywords =
    [
      ("int", Token.Kw_int);
      ("int8", Token.Kw_int8);
      ("int16", Token.Kw_int);
      ("int32", Token.Kw_int32);
      ("void", Token.Kw_void);
      ("const", Token.Kw_const);
      ("if", Token.Kw_if);
      ("else", Token.Kw_else);
      ("while", Token.Kw_while);
      ("do", Token.Kw_do);
      ("for", Token.Kw_for);
      ("return", Token.Kw_return);
    ]

  let is_digit c = c >= '0' && c <= '9'
  let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  type state = { src : string; mutable i : int; mutable line : int; mutable col : int }

  let peek st k =
    let j = st.i + k in
    if j < String.length st.src then Some st.src.[j] else None

  let advance st =
    (match peek st 0 with
    | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
    | Some _ -> st.col <- st.col + 1
    | None -> ());
    st.i <- st.i + 1

  let current_pos st = { Token.line = st.line; col = st.col }

  let rec skip_ws_and_comments st =
    match peek st 0 with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws_and_comments st
    | Some '/' -> (
      match peek st 1 with
      | Some '/' ->
        let rec to_eol () =
          match peek st 0 with
          | Some '\n' | None -> ()
          | Some _ ->
            advance st;
            to_eol ()
        in
        to_eol ();
        skip_ws_and_comments st
      | Some '*' ->
        let start = current_pos st in
        advance st;
        advance st;
        let rec to_close () =
          match (peek st 0, peek st 1) with
          | Some '*', Some '/' ->
            advance st;
            advance st
          | Some _, _ ->
            advance st;
            to_close ()
          | None, _ -> error start "unterminated block comment"
        in
        to_close ();
        skip_ws_and_comments st
      | Some _ | None -> ())
    | Some _ | None -> ()

  let lex_number st =
    let pos = current_pos st in
    let start = st.i in
    let hex =
      match (peek st 0, peek st 1) with
      | Some '0', Some ('x' | 'X') ->
        advance st;
        advance st;
        true
      | _ -> false
    in
    let valid = if hex then is_hex else is_digit in
    let rec consume () =
      match peek st 0 with
      | Some c when valid c ->
        advance st;
        consume ()
      | Some _ | None -> ()
    in
    consume ();
    let text = String.sub st.src start (st.i - start) in
    match int_of_string_opt text with
    | Some n when n >= 0 -> { Token.tok = Int_lit n; pos }
    | Some _ | None -> error pos "invalid integer literal %S" text

  let lex_ident st =
    let pos = current_pos st in
    let start = st.i in
    let rec consume () =
      match peek st 0 with
      | Some c when is_ident_char c ->
        advance st;
        consume ()
      | Some _ | None -> ()
    in
    consume ();
    let text = String.sub st.src start (st.i - start) in
    let tok =
      match List.assoc_opt text keywords with
      | Some kw -> kw
      | None -> Token.Ident text
    in
    { Token.tok; pos }

  let lex_symbol st =
    let pos = current_pos st in
    let two tok =
      advance st;
      advance st;
      { Token.tok; pos }
    in
    let one tok =
      advance st;
      { Token.tok; pos }
    in
    let three tok =
      advance st;
      advance st;
      advance st;
      { Token.tok; pos }
    in
    match (peek st 0, peek st 1, peek st 2) with
    | Some '<', Some '<', Some '=' -> three Token.Shl_assign
    | Some '>', Some '>', Some '=' -> three Token.Shr_assign
    | _ -> (
    match (peek st 0, peek st 1) with
    | Some '<', Some '<' -> two Token.Shl
    | Some '>', Some '>' -> two Token.Shr
    | Some '<', Some '=' -> two Token.Le
    | Some '>', Some '=' -> two Token.Ge
    | Some '=', Some '=' -> two Token.Eq_eq
    | Some '!', Some '=' -> two Token.Bang_eq
    | Some '&', Some '&' -> two Token.Amp_amp
    | Some '|', Some '|' -> two Token.Bar_bar
    | Some '+', Some '=' -> two Token.Plus_assign
    | Some '-', Some '=' -> two Token.Minus_assign
    | Some '*', Some '=' -> two Token.Star_assign
    | Some '&', Some '=' -> two Token.Amp_assign
    | Some '|', Some '=' -> two Token.Bar_assign
    | Some '^', Some '=' -> two Token.Caret_assign
    | Some '+', Some '+' -> two Token.Plus_plus
    | Some '-', Some '-' -> two Token.Minus_minus
    | Some c, _ -> (
      match c with
      | '(' -> one Token.Lparen
      | ')' -> one Token.Rparen
      | '{' -> one Token.Lbrace
      | '}' -> one Token.Rbrace
      | '[' -> one Token.Lbracket
      | ']' -> one Token.Rbracket
      | ';' -> one Token.Semi
      | ',' -> one Token.Comma
      | '=' -> one Token.Assign
      | '+' -> one Token.Plus
      | '-' -> one Token.Minus
      | '*' -> one Token.Star
      | '/' -> one Token.Slash
      | '%' -> one Token.Percent
      | '&' -> one Token.Amp
      | '|' -> one Token.Bar
      | '^' -> one Token.Caret
      | '~' -> one Token.Tilde
      | '!' -> one Token.Bang
      | '<' -> one Token.Lt
      | '>' -> one Token.Gt
      | '?' -> one Token.Question
      | ':' -> one Token.Colon
      | c -> error pos "unexpected character %C" c)
    | None, _ -> { Token.tok = Eof; pos })

  let tokenize src =
    let st = { src; i = 0; line = 1; col = 1 } in
    let rec go acc =
      skip_ws_and_comments st;
      match peek st 0 with
      | None -> List.rev ({ Token.tok = Eof; pos = current_pos st } :: acc)
      | Some c when is_digit c -> go (lex_number st :: acc)
      | Some c when is_ident_start c -> go (lex_ident st :: acc)
      | Some _ -> go (lex_symbol st :: acc)
    in
    go []
end

module Parser = struct
  exception Error of { pos : Token.pos; msg : string }

  let error pos fmt = Format.kasprintf (fun msg -> raise (Error { pos; msg })) fmt

  type state = { toks : Token.located array; mutable k : int }

  let peek st = st.toks.(st.k)
  let peek2 st = st.toks.(min (st.k + 1) (Array.length st.toks - 1))

  let next st =
    let t = st.toks.(st.k) in
    if st.k < Array.length st.toks - 1 then st.k <- st.k + 1;
    t

  let expect st tok =
    let t = next st in
    if t.Token.tok <> tok then
      error t.Token.pos "expected %s but found %s" (Token.describe tok)
        (Token.describe t.Token.tok)

  let accept st tok =
    if (peek st).Token.tok = tok then begin
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

  let mk pos desc = { Ast.desc; epos = pos }

  let rec parse_expr st = parse_ternary st

  and parse_ternary st =
    let cond = parse_lor st in
    if accept st Token.Question then begin
      let t = parse_expr st in
      expect st Token.Colon;
      let f = parse_ternary st in
      mk cond.Ast.epos (Ast.Ternary (cond, t, f))
    end
    else cond

  and parse_binary_level st ops sub =
    let lhs = sub st in
    let rec loop lhs =
      let t = peek st in
      match List.assoc_opt t.Token.tok ops with
      | Some op ->
        ignore (next st);
        let rhs = sub st in
        loop (mk lhs.Ast.epos (Ast.Binary (op, lhs, rhs)))
      | None -> lhs
    in
    loop lhs

  and parse_lor st =
    parse_binary_level st [ (Token.Bar_bar, Ast.Lor) ] parse_land

  and parse_land st =
    parse_binary_level st [ (Token.Amp_amp, Ast.Land) ] parse_bor

  and parse_bor st = parse_binary_level st [ (Token.Bar, Ast.Bor) ] parse_bxor
  and parse_bxor st = parse_binary_level st [ (Token.Caret, Ast.Bxor) ] parse_band
  and parse_band st = parse_binary_level st [ (Token.Amp, Ast.Band) ] parse_equality

  and parse_equality st =
    parse_binary_level st
      [ (Token.Eq_eq, Ast.Eq); (Token.Bang_eq, Ast.Ne) ]
      parse_relational

  and parse_relational st =
    parse_binary_level st
      [ (Token.Lt, Ast.Lt); (Token.Le, Ast.Le); (Token.Gt, Ast.Gt); (Token.Ge, Ast.Ge) ]
      parse_shift

  and parse_shift st =
    parse_binary_level st [ (Token.Shl, Ast.Shl); (Token.Shr, Ast.Shr) ] parse_additive

  and parse_additive st =
    parse_binary_level st [ (Token.Plus, Ast.Add); (Token.Minus, Ast.Sub) ]
      parse_multiplicative

  and parse_multiplicative st =
    parse_binary_level st
      [ (Token.Star, Ast.Mul); (Token.Slash, Ast.Div); (Token.Percent, Ast.Mod) ]
      parse_unary

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
          if (peek st).Token.tok = Token.Rparen then []
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
      | Token.Ident name, op_tok when compound_op op_tok <> None ->
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
        let op = if op_tok = Token.Plus_plus then Ast.Add else Ast.Sub in
        let value =
          mk t.Token.pos
            (Ast.Binary (op, mk t.Token.pos (Ast.Ident name), mk t.Token.pos (Ast.Num 1)))
        in
        mk_stmt t.Token.pos (Ast.Assign { name; value })
      | Token.Ident arr, Token.Lbracket ->
        (* A store "a[i] = e" / "a[i] op= e" / "a[i]++", or an expression
           starting with a[i]. *)
        let save = st.k in
        ignore (next st);
        ignore (next st);
        let index = parse_expr st in
        expect st Token.Rbracket;
        let store_of value = mk_stmt t.Token.pos (Ast.Array_assign { arr; index; value }) in
        let current = (peek st).Token.tok in
        if accept st Token.Assign then store_of (parse_expr st)
        else if compound_op current <> None then begin
          ignore (next st);
          let op = Option.get (compound_op current) in
          let rhs = parse_expr st in
          store_of
            (mk t.Token.pos (Ast.Binary (op, mk t.Token.pos (Ast.Index (arr, index)), rhs)))
        end
        else if current = Token.Plus_plus || current = Token.Minus_minus then begin
          ignore (next st);
          let op = if current = Token.Plus_plus then Ast.Add else Ast.Sub in
          store_of
            (mk t.Token.pos
               (Ast.Binary
                  (op, mk t.Token.pos (Ast.Index (arr, index)), mk t.Token.pos (Ast.Num 1))))
        end
        else begin
          st.k <- save;
          let e = parse_expr st in
          mk_stmt t.Token.pos (Ast.Expr_stmt e)
        end
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
      if kw.Token.tok <> Token.Kw_while then
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
        if (peek st).Token.tok = Token.Semi then None else Some (parse_simple_stmt st)
      in
      expect st Token.Semi;
      let cond =
        if (peek st).Token.tok = Token.Semi then None else Some (parse_expr st)
      in
      expect st Token.Semi;
      let step =
        if (peek st).Token.tok = Token.Rparen then None
        else Some (parse_simple_stmt st)
      in
      expect st Token.Rparen;
      let body = parse_branch st in
      mk_stmt t.Token.pos (Ast.For { init; cond; step; body })
    | Token.Kw_return ->
      ignore (next st);
      let value =
        if (peek st).Token.tok = Token.Semi then None else Some (parse_expr st)
      in
      expect st Token.Semi;
      mk_stmt t.Token.pos (Ast.Return value)
    | _ ->
      let s = parse_simple_stmt st in
      expect st Token.Semi;
      s

  and parse_branch st =
    if (peek st).Token.tok = Token.Lbrace then parse_block st else [ parse_stmt st ]

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
          if (peek st).Token.tok = Token.Rbrace then begin
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
    let is_const = t.Token.tok = Token.Kw_const in
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
    let toks = Array.of_list (Lexer.tokenize src) in
    let st = { toks; k = 0 } in
    let rec go globals funcs =
      if (peek st).Token.tok = Token.Eof then
        { Ast.globals = List.rev globals; funcs = List.rev funcs }
      else
        match parse_top_level st with
        | `Global g -> go (g :: globals) funcs
        | `Func f -> go globals (f :: funcs)
    in
    go [] []

  let parse_expr_string src =
    let toks = Array.of_list (Lexer.tokenize src) in
    let st = { toks; k = 0 } in
    let e = parse_expr st in
    expect st Token.Eof;
    e
end
