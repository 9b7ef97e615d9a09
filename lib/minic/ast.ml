type pos = Token.pos

type unop = Neg | Lognot | Bitnot

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Land
  | Lor

type expr = { desc : expr_desc; epos : pos }

and expr_desc =
  | Num of int
  | Ident of string
  | Index of string * expr
  | Call of string * expr list
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Ternary of expr * expr * expr

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of { name : string; width : int; init : expr option }
  | Assign of { name : string; value : expr }
  | Array_assign of { arr : string; index : expr; value : expr }
  | If of { cond : expr; then_branch : stmt list; else_branch : stmt list }
  | While of { cond : expr; body : stmt list }
  | Do_while of { body : stmt list; cond : expr }
  | For of {
      init : stmt option;
      cond : expr option;
      step : stmt option;
      body : stmt list;
    }
  | Return of expr option
  | Expr_stmt of expr
  | Block of stmt list

type param =
  | Scalar_param of { pname : string; pwidth : int }
  | Array_param of { pname : string; pelem_width : int }

type func = {
  fname : string;
  params : param list;
  returns_value : bool;
  body : stmt list;
  fpos : pos;
}

type global =
  | Global_array of {
      gname : string;
      size : int;
      ginit : int list option;
      is_const : bool;
      gelem_width : int;
    }
  | Global_scalar of { gname : string; gwidth : int; gvalue : int option }

type program = { globals : global list; funcs : func list }

let builtins = [ "min"; "max"; "abs" ]

let rec expr_calls e =
  match e.desc with
  | Num _ | Ident _ -> []
  | Index (_, ix) -> expr_calls ix
  | Call (f, args) ->
    let inner = List.concat_map expr_calls args in
    if List.mem f builtins then inner else inner @ [ f ]
  | Unary (_, a) -> expr_calls a
  | Binary (_, a, b) -> expr_calls a @ expr_calls b
  | Ternary (a, b, c) -> expr_calls a @ expr_calls b @ expr_calls c

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | Land -> "&&"
  | Lor -> "||"

let unop_name = function Neg -> "-" | Lognot -> "!" | Bitnot -> "~"
