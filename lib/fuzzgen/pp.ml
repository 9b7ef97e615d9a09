module Ast = Hypar_minic.Ast

(* Every compound expression is parenthesised, so the printed form
   re-parses to the same tree regardless of operator precedence; leaves
   (literals, identifiers, loads, calls) print bare because the parser
   treats them as primaries. *)
let rec expr (e : Ast.expr) =
  match e.desc with
  | Ast.Num n -> string_of_int n
  | Ast.Ident s -> s
  | Ast.Index (arr, ix) -> Printf.sprintf "%s[%s]" arr (expr ix)
  | Ast.Call (f, args) ->
    Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr args))
  | Ast.Unary (op, a) ->
    Printf.sprintf "(%s%s)" (Ast.unop_name op) (expr a)
  | Ast.Binary (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr a) (Ast.binop_name op) (expr b)
  | Ast.Ternary (c, t, f) ->
    Printf.sprintf "(%s ? %s : %s)" (expr c) (expr t) (expr f)

let width_kw = function 8 -> "int8" | 32 -> "int32" | _ -> "int"

(* Simple statements (usable as a [for] init/step) print without the
   trailing semicolon; [stmt_lines] adds it for statement position. *)
let simple (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Decl { name; width; init } -> (
    match init with
    | None -> Printf.sprintf "%s %s" (width_kw width) name
    | Some e -> Printf.sprintf "%s %s = %s" (width_kw width) name (expr e))
  | Ast.Assign { name; value } -> Printf.sprintf "%s = %s" name (expr value)
  | Ast.Array_assign { arr; index; value } ->
    Printf.sprintf "%s[%s] = %s" arr (expr index) (expr value)
  | Ast.Expr_stmt e -> expr e
  | _ -> invalid_arg "Pp.simple: not a simple statement"

let rec stmt_lines buf indent (s : Ast.stmt) =
  let pad = String.make indent ' ' in
  let add fmt = Printf.ksprintf (fun line -> Buffer.add_string buf (pad ^ line ^ "\n")) fmt in
  match s.sdesc with
  | Ast.Decl _ | Ast.Assign _ | Ast.Array_assign _ | Ast.Expr_stmt _ ->
    add "%s;" (simple s)
  | Ast.If { cond; then_branch; else_branch } ->
    add "if (%s) {" (expr cond);
    List.iter (stmt_lines buf (indent + 2)) then_branch;
    if else_branch = [] then add "}"
    else begin
      add "} else {";
      List.iter (stmt_lines buf (indent + 2)) else_branch;
      add "}"
    end
  | Ast.While { cond; body } ->
    add "while (%s) {" (expr cond);
    List.iter (stmt_lines buf (indent + 2)) body;
    add "}"
  | Ast.Do_while { body; cond } ->
    add "do {";
    List.iter (stmt_lines buf (indent + 2)) body;
    add "} while (%s);" (expr cond)
  | Ast.For { init; cond; step; body } ->
    add "for (%s; %s; %s) {"
      (match init with None -> "" | Some s0 -> simple s0)
      (match cond with None -> "" | Some e -> expr e)
      (match step with None -> "" | Some s0 -> simple s0);
    List.iter (stmt_lines buf (indent + 2)) body;
    add "}"
  | Ast.Return None -> add "return;"
  | Ast.Return (Some e) -> add "return %s;" (expr e)
  | Ast.Block body ->
    add "{";
    List.iter (stmt_lines buf (indent + 2)) body;
    add "}"

let param = function
  | Ast.Scalar_param { pname; pwidth } ->
    Printf.sprintf "%s %s" (width_kw pwidth) pname
  | Ast.Array_param { pname; pelem_width } ->
    Printf.sprintf "%s %s[]" (width_kw pelem_width) pname

let global buf (g : Ast.global) =
  match g with
  | Ast.Global_array { gname; size; ginit; is_const; gelem_width } ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s[%d]%s;\n"
         (if is_const then "const " else "")
         (width_kw gelem_width) gname size
         (match ginit with
         | None -> ""
         | Some init ->
           Printf.sprintf " = { %s }"
             (String.concat ", " (List.map string_of_int init))))
  | Ast.Global_scalar { gname; gwidth; gvalue } ->
    Buffer.add_string buf
      (Printf.sprintf "%s %s%s;\n" (width_kw gwidth) gname
         (match gvalue with
         | None -> ""
         | Some v -> Printf.sprintf " = %d" v))

let func buf (f : Ast.func) =
  Buffer.add_string buf
    (Printf.sprintf "%s %s(%s) {\n"
       (if f.returns_value then "int" else "void")
       f.fname
       (String.concat ", " (List.map param f.params)));
  List.iter (stmt_lines buf 2) f.body;
  Buffer.add_string buf "}\n"

let program (p : Ast.program) =
  let buf = Buffer.create 512 in
  List.iter (global buf) p.globals;
  if p.globals <> [] then Buffer.add_char buf '\n';
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf '\n';
      func buf f)
    p.funcs;
  Buffer.contents buf
