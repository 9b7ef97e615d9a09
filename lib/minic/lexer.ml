exception Error of { pos : Token.pos; msg : string }

let error pos fmt = Format.kasprintf (fun msg -> raise (Error { pos; msg })) fmt

let keyword_or_ident = function
  | "int" | "int16" -> Token.Kw_int
  | "int8" -> Token.Kw_int8
  | "int32" -> Token.Kw_int32
  | "void" -> Token.Kw_void
  | "const" -> Token.Kw_const
  | "if" -> Token.Kw_if
  | "else" -> Token.Kw_else
  | "while" -> Token.Kw_while
  | "do" -> Token.Kw_do
  | "for" -> Token.Kw_for
  | "return" -> Token.Kw_return
  | text -> Token.Ident text

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(* [bol] is the index of the first character of the current line, so a
   column is [i - bol + 1]; only newlines update the line bookkeeping. *)
type state = {
  src : string;
  len : int;
  mutable i : int;
  mutable line : int;
  mutable bol : int;
}

let at st k c = st.i + k < st.len && st.src.[st.i + k] = c
let current_pos st = { Token.line = st.line; col = st.i - st.bol + 1 }

let rec skip_while st p =
  if st.i < st.len && p st.src.[st.i] then begin
    st.i <- st.i + 1;
    skip_while st p
  end

let rec skip_block_comment st start =
  if st.i >= st.len then error start "unterminated block comment"
  else if at st 0 '*' && at st 1 '/' then st.i <- st.i + 2
  else begin
    if st.src.[st.i] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.i + 1
    end;
    st.i <- st.i + 1;
    skip_block_comment st start
  end

let rec skip_ws_and_comments st =
  if st.i < st.len then
    match st.src.[st.i] with
    | ' ' | '\t' | '\r' ->
      st.i <- st.i + 1;
      skip_ws_and_comments st
    | '\n' ->
      st.i <- st.i + 1;
      st.line <- st.line + 1;
      st.bol <- st.i;
      skip_ws_and_comments st
    | '/' when at st 1 '/' ->
      skip_while st (fun c -> c <> '\n');
      skip_ws_and_comments st
    | '/' when at st 1 '*' ->
      let start = current_pos st in
      st.i <- st.i + 2;
      skip_block_comment st start;
      skip_ws_and_comments st
    | _ -> ()

(* A hexadecimal literal above [max_int] would wrap to a negative int, so
   only a non-negative result is in range. *)
let lex_number st =
  let pos = current_pos st in
  let start = st.i in
  if at st 0 '0' && (at st 1 'x' || at st 1 'X') then begin
    st.i <- st.i + 2;
    skip_while st is_hex
  end
  else skip_while st is_digit;
  let text = String.sub st.src start (st.i - start) in
  match int_of_string_opt text with
  | Some n when n >= 0 -> { Token.tok = Int_lit n; pos }
  | Some _ | None -> error pos "invalid integer literal %S" text

let lex_ident st =
  let pos = current_pos st in
  let start = st.i in
  skip_while st is_ident_char;
  { Token.tok = keyword_or_ident (String.sub st.src start (st.i - start)); pos }

let emit st pos n tok =
  st.i <- st.i + n;
  { Token.tok; pos }

let lex_symbol st =
  let pos = current_pos st in
  match st.src.[st.i] with
  | '(' -> emit st pos 1 Token.Lparen
  | ')' -> emit st pos 1 Token.Rparen
  | '{' -> emit st pos 1 Token.Lbrace
  | '}' -> emit st pos 1 Token.Rbrace
  | '[' -> emit st pos 1 Token.Lbracket
  | ']' -> emit st pos 1 Token.Rbracket
  | ';' -> emit st pos 1 Token.Semi
  | ',' -> emit st pos 1 Token.Comma
  | '/' -> emit st pos 1 Token.Slash
  | '%' -> emit st pos 1 Token.Percent
  | '~' -> emit st pos 1 Token.Tilde
  | '?' -> emit st pos 1 Token.Question
  | ':' -> emit st pos 1 Token.Colon
  | '<' when at st 1 '<' && at st 2 '=' -> emit st pos 3 Token.Shl_assign
  | '<' when at st 1 '<' -> emit st pos 2 Token.Shl
  | '<' when at st 1 '=' -> emit st pos 2 Token.Le
  | '<' -> emit st pos 1 Token.Lt
  | '>' when at st 1 '>' && at st 2 '=' -> emit st pos 3 Token.Shr_assign
  | '>' when at st 1 '>' -> emit st pos 2 Token.Shr
  | '>' when at st 1 '=' -> emit st pos 2 Token.Ge
  | '>' -> emit st pos 1 Token.Gt
  | '=' when at st 1 '=' -> emit st pos 2 Token.Eq_eq
  | '=' -> emit st pos 1 Token.Assign
  | '!' when at st 1 '=' -> emit st pos 2 Token.Bang_eq
  | '!' -> emit st pos 1 Token.Bang
  | '&' when at st 1 '&' -> emit st pos 2 Token.Amp_amp
  | '&' when at st 1 '=' -> emit st pos 2 Token.Amp_assign
  | '&' -> emit st pos 1 Token.Amp
  | '|' when at st 1 '|' -> emit st pos 2 Token.Bar_bar
  | '|' when at st 1 '=' -> emit st pos 2 Token.Bar_assign
  | '|' -> emit st pos 1 Token.Bar
  | '+' when at st 1 '+' -> emit st pos 2 Token.Plus_plus
  | '+' when at st 1 '=' -> emit st pos 2 Token.Plus_assign
  | '+' -> emit st pos 1 Token.Plus
  | '-' when at st 1 '-' -> emit st pos 2 Token.Minus_minus
  | '-' when at st 1 '=' -> emit st pos 2 Token.Minus_assign
  | '-' -> emit st pos 1 Token.Minus
  | '*' when at st 1 '=' -> emit st pos 2 Token.Star_assign
  | '*' -> emit st pos 1 Token.Star
  | '^' when at st 1 '=' -> emit st pos 2 Token.Caret_assign
  | '^' -> emit st pos 1 Token.Caret
  | c -> error pos "unexpected character %C" c

let tokenize src =
  let st = { src; len = String.length src; i = 0; line = 1; bol = 0 } in
  let rec go acc =
    skip_ws_and_comments st;
    if st.i >= st.len then List.rev ({ Token.tok = Eof; pos = current_pos st } :: acc)
    else
      let c = src.[st.i] in
      if is_digit c then go (lex_number st :: acc)
      else if is_ident_start c then go (lex_ident st :: acc)
      else go (lex_symbol st :: acc)
  in
  go []
