type var = { vname : string; vid : int; vwidth : Types.width }
type operand = Var of var | Imm of int

type t =
  | Bin of { dst : var; op : Types.alu_op; a : operand; b : operand }
  | Mul of { dst : var; a : operand; b : operand }
  | Div of { dst : var; a : operand; b : operand }
  | Rem of { dst : var; a : operand; b : operand }
  | Un of { dst : var; op : Types.un_op; a : operand }
  | Mov of { dst : var; src : operand }
  | Select of { dst : var; cond : operand; if_true : operand; if_false : operand }
  | Load of { dst : var; arr : string; index : operand }
  | Store of { arr : string; index : operand; value : operand }

let def = function
  | Bin { dst; _ }
  | Mul { dst; _ }
  | Div { dst; _ }
  | Rem { dst; _ }
  | Un { dst; _ }
  | Mov { dst; _ }
  | Select { dst; _ }
  | Load { dst; _ } ->
    Some dst
  | Store _ -> None

let uses = function
  | Bin { a; b; _ } | Mul { a; b; _ } | Div { a; b; _ } | Rem { a; b; _ } ->
    [ a; b ]
  | Un { a; _ } -> [ a ]
  | Mov { src; _ } -> [ src ]
  | Select { cond; if_true; if_false; _ } -> [ cond; if_true; if_false ]
  | Load { index; _ } -> [ index ]
  | Store { index; value; _ } -> [ index; value ]

let map_operands f i =
  match i with
  | Bin ({ a; b; _ } as r) ->
    let a' = f a in
    let b' = f b in
    if a' == a && b' == b then i else Bin { r with a = a'; b = b' }
  | Mul ({ a; b; _ } as r) ->
    let a' = f a in
    let b' = f b in
    if a' == a && b' == b then i else Mul { r with a = a'; b = b' }
  | Div ({ a; b; _ } as r) ->
    let a' = f a in
    let b' = f b in
    if a' == a && b' == b then i else Div { r with a = a'; b = b' }
  | Rem ({ a; b; _ } as r) ->
    let a' = f a in
    let b' = f b in
    if a' == a && b' == b then i else Rem { r with a = a'; b = b' }
  | Un ({ a; _ } as r) ->
    let a' = f a in
    if a' == a then i else Un { r with a = a' }
  | Mov ({ src; _ } as r) ->
    let src' = f src in
    if src' == src then i else Mov { r with src = src' }
  | Select ({ cond; if_true; if_false; _ } as r) ->
    let cond' = f cond in
    let if_true' = f if_true in
    let if_false' = f if_false in
    if cond' == cond && if_true' == if_true && if_false' == if_false then i
    else Select { r with cond = cond'; if_true = if_true'; if_false = if_false' }
  | Load ({ index; _ } as r) ->
    let index' = f index in
    if index' == index then i else Load { r with index = index' }
  | Store ({ index; value; _ } as r) ->
    let index' = f index in
    let value' = f value in
    if index' == index && value' == value then i
    else Store { r with index = index'; value = value' }

let eval value i =
  match i with
  | Bin { op; a; b; _ } -> (
    match (value a, value b) with
    | Some x, Some y -> Some (Types.eval_alu_op op x y)
    | _ -> None)
  | Mul { a; b; _ } -> (
    match (value a, value b) with Some x, Some y -> Some (x * y) | _ -> None)
  | Div { a; b; _ } -> (
    match (value a, value b) with
    | Some x, Some y when y <> 0 -> Some (x / y)
    | _ -> None)
  | Rem { a; b; _ } -> (
    match (value a, value b) with
    | Some x, Some y when y <> 0 -> Some (x mod y)
    | _ -> None)
  | Un { op; a; _ } -> (
    match value a with Some x -> Some (Types.eval_un_op op x) | None -> None)
  | Mov { src; _ } -> value src
  | Select { cond; if_true; if_false; _ } -> (
    match value cond with
    | Some c -> value (if c <> 0 then if_true else if_false)
    | None -> None)
  | Load _ | Store _ -> None

let width_of_int n =
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  let w = 1 + bits 0 (abs n) in
  if w > 32 then 32 else w

let width_of_operand = function Var v -> v.vwidth | Imm n -> width_of_int n
let clamp_width w = if w > 32 then 32 else if w < 1 then 1 else w

let widest a b =
  let wa = width_of_operand a and wb = width_of_operand b in
  if wa >= wb then wa else wb

let alu_width (op : Types.alu_op) a b =
  match op with
  | Lt | Le | Eq | Ne | Gt | Ge -> 1
  | Add | Sub -> clamp_width (1 + widest a b)
  | And | Or | Xor | Shl | Shr | Ashr | Min | Max -> clamp_width (widest a b)

let mul_width a b = clamp_width (width_of_operand a + width_of_operand b)
let div_width a b = clamp_width (widest a b)

let un_width (op : Types.un_op) a =
  match op with
  | Neg -> clamp_width (1 + width_of_operand a)
  | Not | Abs -> width_of_operand a

let select_width = widest

let used_vars i =
  List.filter_map (function Var v -> Some v | Imm _ -> None) (uses i)

let op_class = function
  | Bin _ | Un _ -> Types.Class_alu
  | Mul _ -> Types.Class_mul
  | Div _ | Rem _ -> Types.Class_div
  | Load _ | Store _ -> Types.Class_mem
  | Mov _ | Select _ -> Types.Class_move

let accessed_array = function
  | Load { arr; _ } | Store { arr; _ } -> Some arr
  | Bin _ | Mul _ | Div _ | Rem _ | Un _ | Mov _ | Select _ -> None

let is_store = function
  | Store _ -> true
  | Bin _ | Mul _ | Div _ | Rem _ | Un _ | Mov _ | Select _ | Load _ -> false

let is_load = function
  | Load _ -> true
  | Bin _ | Mul _ | Div _ | Rem _ | Un _ | Mov _ | Select _ | Store _ -> false

let mnemonic = function
  | Bin { op; _ } -> Types.string_of_alu_op op
  | Mul _ -> "mul"
  | Div _ -> "div"
  | Rem _ -> "rem"
  | Un { op; _ } -> Types.string_of_un_op op
  | Mov _ -> "mov"
  | Select _ -> "select"
  | Load _ -> "load"
  | Store _ -> "store"

let var_equal v1 v2 = v1.vid = v2.vid

let pp_var ppf v = Format.fprintf ppf "%s#%d" v.vname v.vid

let pp_operand ppf = function
  | Var v -> pp_var ppf v
  | Imm n -> Format.pp_print_int ppf n

let pp ppf i =
  let p fmt = Format.fprintf ppf fmt in
  match i with
  | Bin { dst; op; a; b } ->
    p "%a = %s %a, %a" pp_var dst (Types.string_of_alu_op op) pp_operand a
      pp_operand b
  | Mul { dst; a; b } -> p "%a = mul %a, %a" pp_var dst pp_operand a pp_operand b
  | Div { dst; a; b } -> p "%a = div %a, %a" pp_var dst pp_operand a pp_operand b
  | Rem { dst; a; b } -> p "%a = rem %a, %a" pp_var dst pp_operand a pp_operand b
  | Un { dst; op; a } ->
    p "%a = %s %a" pp_var dst (Types.string_of_un_op op) pp_operand a
  | Mov { dst; src } -> p "%a = %a" pp_var dst pp_operand src
  | Select { dst; cond; if_true; if_false } ->
    p "%a = select %a ? %a : %a" pp_var dst pp_operand cond pp_operand if_true
      pp_operand if_false
  | Load { dst; arr; index } -> p "%a = %s[%a]" pp_var dst arr pp_operand index
  | Store { arr; index; value } ->
    p "%s[%a] = %a" arr pp_operand index pp_operand value

let to_string i = Format.asprintf "%a" pp i
