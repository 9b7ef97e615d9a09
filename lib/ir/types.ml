type width = int

type alu_op =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Ashr
  | Lt
  | Le
  | Eq
  | Ne
  | Gt
  | Ge
  | Min
  | Max

type un_op = Neg | Not | Abs

type op_class = Class_alu | Class_mul | Class_div | Class_mem | Class_move

let string_of_alu_op = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Ashr -> "ashr"
  | Lt -> "lt"
  | Le -> "le"
  | Eq -> "eq"
  | Ne -> "ne"
  | Gt -> "gt"
  | Ge -> "ge"
  | Min -> "min"
  | Max -> "max"

let string_of_un_op = function Neg -> "neg" | Not -> "not" | Abs -> "abs"

let string_of_op_class = function
  | Class_alu -> "alu"
  | Class_mul -> "mul"
  | Class_div -> "div"
  | Class_mem -> "mem"
  | Class_move -> "move"

let bool_to_int b = if b then 1 else 0

(* Shift amounts are clamped so that hostile inputs cannot trigger
   undefined native shifts; 62 keeps results within OCaml's int range. *)
let clamp_shift n = if n < 0 then 0 else if n > 62 then 62 else n

let eval_alu_op op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl clamp_shift b
  | Shr -> a lsr clamp_shift b
  | Ashr -> a asr clamp_shift b
  | Lt -> bool_to_int (a < b)
  | Le -> bool_to_int (a <= b)
  | Eq -> bool_to_int (a = b)
  | Ne -> bool_to_int (a <> b)
  | Gt -> bool_to_int (a > b)
  | Ge -> bool_to_int (a >= b)
  | Min -> min a b
  | Max -> max a b

let eval_un_op op a =
  match op with Neg -> -a | Not -> lnot a | Abs -> abs a

let all_alu_ops =
  [ Add; Sub; And; Or; Xor; Shl; Shr; Ashr; Lt; Le; Eq; Ne; Gt; Ge; Min; Max ]

let all_un_ops = [ Neg; Not; Abs ]
