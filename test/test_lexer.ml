(* Unit tests for the Mini-C lexer. *)

module Token = Hypar_minic.Token
module Lexer = Hypar_minic.Lexer

let toks src = List.map (fun (t : Token.located) -> t.tok) (Lexer.tokenize src)

let token = Alcotest.testable (fun ppf t -> Fmt.string ppf (Token.describe t)) ( = )

let test_keywords_and_idents () =
  Alcotest.(check (list token)) "keywords"
    [ Token.Kw_int; Token.Ident "x"; Token.Assign; Token.Int_lit 1; Token.Semi; Token.Eof ]
    (toks "int x = 1;");
  Alcotest.(check (list token)) "int16 is int"
    [ Token.Kw_int; Token.Eof ] (toks "int16");
  Alcotest.(check (list token)) "widths"
    [ Token.Kw_int8; Token.Kw_int32; Token.Kw_void; Token.Kw_const; Token.Eof ]
    (toks "int8 int32 void const");
  Alcotest.(check (list token)) "ident containing keyword"
    [ Token.Ident "integer"; Token.Eof ] (toks "integer")

let test_numbers () =
  Alcotest.(check (list token)) "decimal" [ Token.Int_lit 12345; Token.Eof ] (toks "12345");
  Alcotest.(check (list token)) "hex" [ Token.Int_lit 255; Token.Eof ] (toks "0xFF");
  Alcotest.(check (list token)) "hex lowercase" [ Token.Int_lit 48879; Token.Eof ] (toks "0xbeef");
  Alcotest.(check (list token)) "zero" [ Token.Int_lit 0; Token.Eof ] (toks "0");
  Alcotest.(check (list token)) "hex max_int" [ Token.Int_lit max_int; Token.Eof ]
    (toks "0x3FFFFFFFFFFFFFFF");
  (* above max_int a hex literal is refused like a decimal one, not
     wrapped to a negative value *)
  List.iter
    (fun src ->
      match Lexer.tokenize src with
      | exception Lexer.Error { pos = { line = 1; col = 1 }; msg } ->
        Alcotest.(check string) src (Printf.sprintf "invalid integer literal %S" src) msg
      | _ -> Alcotest.failf "expected %s to be refused" src)
    [ "0x4000000000000000"; "0x7FFFFFFFFFFFFFFF"; "4611686018427387904" ]

let test_operators () =
  Alcotest.(check (list token)) "two-char operators"
    [ Token.Shl; Token.Shr; Token.Le; Token.Ge; Token.Eq_eq; Token.Bang_eq;
      Token.Amp_amp; Token.Bar_bar; Token.Eof ]
    (toks "<< >> <= >= == != && ||");
  Alcotest.(check (list token)) "one-char operators"
    [ Token.Plus; Token.Minus; Token.Star; Token.Slash; Token.Percent;
      Token.Amp; Token.Bar; Token.Caret; Token.Tilde; Token.Bang; Token.Lt;
      Token.Gt; Token.Question; Token.Colon; Token.Eof ]
    (toks "+ - * / % & | ^ ~ ! < > ? :");
  Alcotest.(check (list token)) "adjacent < <" [ Token.Shl; Token.Lt; Token.Eof ]
    (toks "<<<")

let test_comments () =
  Alcotest.(check (list token)) "line comment"
    [ Token.Int_lit 1; Token.Int_lit 2; Token.Eof ]
    (toks "1 // comment here\n2");
  Alcotest.(check (list token)) "block comment"
    [ Token.Int_lit 1; Token.Int_lit 2; Token.Eof ]
    (toks "1 /* multi\nline */ 2");
  Alcotest.(check (list token)) "nested stars" [ Token.Int_lit 3; Token.Eof ]
    (toks "/* ** * */ 3")

let test_positions () =
  match Lexer.tokenize "x\n  y" with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "x line" 1 a.Token.pos.line;
    Alcotest.(check int) "x col" 1 a.Token.pos.col;
    Alcotest.(check int) "y line" 2 b.Token.pos.line;
    Alcotest.(check int) "y col" 3 b.Token.pos.col
  | _ -> Alcotest.fail "unexpected token count"

let test_errors () =
  let raises src =
    match Lexer.tokenize src with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "expected lexer error on %S" src
  in
  raises "@";
  raises "/* unterminated";
  raises "$"

let test_empty () =
  Alcotest.(check (list token)) "only eof" [ Token.Eof ] (toks "");
  Alcotest.(check (list token)) "whitespace only" [ Token.Eof ] (toks "  \n\t ")

let suite =
  [
    Alcotest.test_case "keywords and identifiers" `Quick test_keywords_and_idents;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "empty input" `Quick test_empty;
  ]
