(* Unit tests for the Mini-C parser: precedence, associativity, statement
   and top-level forms, and error reporting. *)

module Ast = Hypar_minic.Ast
module Parser = Hypar_minic.Parser

let rec expr_to_string (e : Ast.expr) =
  match e.desc with
  | Ast.Num n -> string_of_int n
  | Ast.Ident s -> s
  | Ast.Index (a, i) -> Printf.sprintf "%s[%s]" a (expr_to_string i)
  | Ast.Call (f, args) ->
    Printf.sprintf "%s(%s)" f (String.concat "," (List.map expr_to_string args))
  | Ast.Unary (op, a) ->
    Printf.sprintf "(%s%s)" (Ast.unop_name op) (expr_to_string a)
  | Ast.Binary (op, a, b) ->
    Printf.sprintf "(%s%s%s)" (expr_to_string a)
      (Ast.binop_name op)
      (expr_to_string b)
  | Ast.Ternary (a, b, c) ->
    Printf.sprintf "(%s?%s:%s)" (expr_to_string a) (expr_to_string b)
      (expr_to_string c)

let parses_as src expected =
  Alcotest.(check string) src expected (expr_to_string (Parser.parse_expr_string src))

let test_precedence () =
  parses_as "1 + 2 * 3" "(1+(2*3))";
  parses_as "1 * 2 + 3" "((1*2)+3)";
  parses_as "1 + 2 - 3" "((1+2)-3)";
  parses_as "1 << 2 + 3" "(1<<(2+3))";
  parses_as "1 < 2 << 3" "(1<(2<<3))";
  parses_as "1 == 2 < 3" "(1==(2<3))";
  parses_as "1 & 2 == 3" "(1&(2==3))";
  parses_as "1 ^ 2 & 3" "(1^(2&3))";
  parses_as "1 | 2 ^ 3" "(1|(2^3))";
  parses_as "1 && 2 | 3" "(1&&(2|3))";
  parses_as "1 || 2 && 3" "(1||(2&&3))"

let test_unary_and_paren () =
  parses_as "-x * 2" "((-x)*2)";
  parses_as "-(x * 2)" "(-(x*2))";
  parses_as "!x && y" "((!x)&&y)";
  parses_as "~x + 1" "((~x)+1)";
  parses_as "- -x" "(-(-x))";
  parses_as "+x" "x"

let test_ternary () =
  parses_as "a ? b : c" "(a?b:c)";
  parses_as "a ? b : c ? d : e" "(a?b:(c?d:e))";
  parses_as "a < 0 ? 0 - a : a" "((a<0)?(0-a):a)"

let test_calls_and_index () =
  parses_as "f(1, 2 + 3)" "f(1,(2+3))";
  parses_as "min(a, b) + 1" "(min(a,b)+1)";
  parses_as "t[i + 1] * 2" "(t[(i+1)]*2)";
  parses_as "g()" "g()"

let test_program_forms () =
  let prog =
    Parser.parse_program
      {|
const int rom[3] = { 1, 2, 3 };
int buf[8];
int counter = 5;
int flag;

int helper(int a, int b[]) {
  return a + b[0];
}

void main() {
  int x = helper(1, buf);
  buf[0] = x;
}
|}
  in
  Alcotest.(check int) "4 globals" 4 (List.length prog.Ast.globals);
  Alcotest.(check int) "2 functions" 2 (List.length prog.Ast.funcs);
  (match prog.Ast.globals with
  | Ast.Global_array { gname; size; ginit; is_const; _ } :: _ ->
    Alcotest.(check string) "rom name" "rom" gname;
    Alcotest.(check int) "rom size" 3 size;
    Alcotest.(check bool) "rom const" true is_const;
    Alcotest.(check (option (list int))) "rom init" (Some [ 1; 2; 3 ]) ginit
  | _ -> Alcotest.fail "expected const array first");
  match prog.Ast.funcs with
  | f :: _ ->
    Alcotest.(check string) "helper name" "helper" f.Ast.fname;
    Alcotest.(check bool) "helper returns value" true f.Ast.returns_value;
    Alcotest.(check int) "helper arity" 2 (List.length f.Ast.params)
  | [] -> Alcotest.fail "missing functions"

let test_statements () =
  let prog =
    Parser.parse_program
      {|
void main() {
  int i;
  for (i = 0; i < 4; i = i + 1) { }
  while (i > 0) { i = i - 1; }
  do { i = i + 1; } while (i < 2);
  if (i == 2) { i = 0; } else { i = 1; }
  if (i == 0) i = 9;
}
|}
  in
  match prog.Ast.funcs with
  | [ f ] -> Alcotest.(check int) "6 top statements" 6 (List.length f.Ast.body)
  | _ -> Alcotest.fail "expected main only"

let test_negative_init () =
  let prog = Parser.parse_program "const int t[2] = { -5, 7 };\nvoid main() { }" in
  match prog.Ast.globals with
  | [ Ast.Global_array { ginit = Some [ -5; 7 ]; _ } ] -> ()
  | _ -> Alcotest.fail "negative initialiser not parsed"

let test_errors () =
  let raises src =
    match Parser.parse_program src with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" src
  in
  raises "void main() { int }";
  raises "void main() { x = ; }";
  raises "void main() { if x { } }";
  raises "void main() { for (;;) }";
  raises "int x[] ;";
  raises "void main() { do { } while (1) }" (* missing ';' *)

(* The library parser against the reference copy of the recursive-descent
   parser it replaced: both return equal ASTs (positions included) or both
   raise the same error at the same position.  The fuzz generator prints
   every compound expression in parentheses and every 16-bit type as
   [int], so each generated source is also tried with its grouping
   parentheses blanked out (precedence then decides the tree) and with
   [int] spelled [int16]; each of the three, in turn, with one character
   deleted, duplicated or swapped with its successor. *)
type outcome =
  | Parsed of Ast.program
  | Lexer_error of Hypar_minic.Token.pos * string
  | Parser_error of Hypar_minic.Token.pos * string

let library src =
  match Parser.parse_program src with
  | p -> Parsed p
  | exception Hypar_minic.Lexer.Error { pos; msg } -> Lexer_error (pos, msg)
  | exception Parser.Error { pos; msg } -> Parser_error (pos, msg)

let reference src =
  match Parser_reference.Parser.parse_program src with
  | p -> Parsed p
  | exception Parser_reference.Lexer.Error { pos; msg } -> Lexer_error (pos, msg)
  | exception Parser_reference.Parser.Error { pos; msg } -> Parser_error (pos, msg)

let describe = function
  | Parsed _ -> "parsed"
  | Lexer_error (p, m) -> Printf.sprintf "lexer error %d:%d %s" p.line p.col m
  | Parser_error (p, m) -> Printf.sprintf "parser error %d:%d %s" p.line p.col m

(* A '(' after an identifier or keyword opens a call or a statement
   header; any other one groups an expression and is blanked with its
   ')'. *)
let ungroup src =
  let b = Bytes.of_string src in
  let is_word = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let prev = ref ' ' and opened = ref [] in
  String.iteri
    (fun i c ->
      (match (c, !opened) with
      | '(', _ -> opened := (i, not (is_word !prev)) :: !opened
      | ')', (j, grouping) :: rest ->
        if grouping then (Bytes.set b i ' '; Bytes.set b j ' ');
        opened := rest
      | _ -> ());
      if not (String.contains " \t\n" c) then prev := c)
    src;
  Bytes.to_string b

let respell = Str.global_replace (Str.regexp "\\bint\\b") "int16"

let mutants rng src =
  let n = String.length src in
  let at () = Random.State.int rng (n - 1) in
  let splice i len mid = String.sub src 0 i ^ mid ^ String.sub src (i + len) (n - i - len) in
  let delete = let i = at () in splice i 1 "" in
  let duplicate = let i = at () in splice i 1 (String.make 2 src.[i]) in
  let swap = let i = at () in splice i 2 (Printf.sprintf "%c%c" src.[i + 1] src.[i]) in
  [ src; delete; duplicate; swap ]

let prop_matches_reference =
  QCheck.Test.make ~name:"parser matches the reference parser" ~count:250
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      let src = Hypar_fuzzgen.Gen.source seed in
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun src ->
          let lib = library src and ref_ = reference src in
          lib = ref_
          || QCheck.Test.fail_reportf "library %s, reference %s on\n%s"
               (describe lib) (describe ref_) src)
        (List.concat_map (mutants rng) [ src; ungroup src; respell src ]))

let suite =
  [
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "unary and parentheses" `Quick test_unary_and_paren;
    Alcotest.test_case "ternary" `Quick test_ternary;
    Alcotest.test_case "calls and indexing" `Quick test_calls_and_index;
    Alcotest.test_case "program forms" `Quick test_program_forms;
    Alcotest.test_case "statements" `Quick test_statements;
    Alcotest.test_case "negative initialisers" `Quick test_negative_init;
    Alcotest.test_case "errors" `Quick test_errors;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
