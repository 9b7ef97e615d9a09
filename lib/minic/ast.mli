(** Abstract syntax of Mini-C.

    Mini-C is the integer-C subset needed by the paper's two benchmark
    applications: global (optionally [const]-initialised) arrays, global
    scalars, functions over scalars and arrays, [for]/[while]/[do-while]
    loops, [if]/[else], the full C integer operator set, the ternary
    operator, and [min]/[max]/[abs] builtins.  [&&], [||] and [?:]
    evaluate all their (pure) operands — there is no short-circuiting,
    matching the data-flow-graph execution model. *)

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

val builtins : string list
(** Names treated as intrinsic functions: ["min"; "max"; "abs"]. *)

val expr_calls : expr -> string list
(** All non-builtin callee names in an expression, in evaluation order. *)

val binop_name : binop -> string
(** The operator's concrete syntax, e.g. ["+"] for [Add]. *)

val unop_name : unop -> string
