module Ir = Hypar_ir

type interval = { lo : int; hi : int }

(* bounds kept well inside native ints so sums and differences cannot
   overflow (|bound| <= 2^45); products can reach 2^90 and saturate *)
let limit = 1 lsl 45

let clamp v = if v > limit then limit else if v < -limit then -limit else v

let top = { lo = -limit; hi = limit }

let make lo hi = { lo = clamp lo; hi = clamp hi }

let width_range w =
  (* width-1 registers are comparison flags: unsigned 0/1 *)
  if w <= 1 then { lo = 0; hi = 1 }
  else
    let w = if w > 45 then 45 else w in
    { lo = -(1 lsl (w - 1)); hi = (1 lsl (w - 1)) - 1 }

let join a b = make (min a.lo b.lo) (max a.hi b.hi)

let const n = make n n

let add a b = make (a.lo + b.lo) (a.hi + b.hi)
let sub a b = make (a.lo - b.hi) (a.hi - b.lo)
let neg a = make (-a.hi) (-a.lo)

(* x * y saturated at +-limit: |x * y| > limit exactly when
   |y| > limit / |x|, so the native product is only taken when it fits *)
let sat_mul x y =
  if x = 0 || y = 0 then 0
  else if abs y > limit / abs x then if (x < 0) = (y < 0) then limit else -limit
  else x * y

let mul a b =
  let a = make a.lo a.hi and b = make b.lo b.hi in
  let p1 = sat_mul a.lo b.lo and p2 = sat_mul a.lo b.hi
  and p3 = sat_mul a.hi b.lo and p4 = sat_mul a.hi b.hi in
  make (min (min p1 p2) (min p3 p4)) (max (max p1 p2) (max p3 p4))

let abs_iv a =
  if a.lo >= 0 then a
  else if a.hi <= 0 then neg a
  else make 0 (max (-a.lo) a.hi)

(* next power of two at or above n (n >= 0) *)
let next_pow2 n =
  let rec go p = if p > n then p else go (p * 2) in
  if n >= limit then limit else go 1

let bitwise_or_xor a b =
  (* both operands in [0, m]: no result bit above next_pow2(m) *)
  if a.lo >= 0 && b.lo >= 0 then make 0 (next_pow2 (max a.hi b.hi) - 1)
  else top

let bitwise_and a b =
  if a.lo >= 0 && b.lo >= 0 then make 0 (min a.hi b.hi)
  else if a.lo >= 0 then make 0 a.hi
  else if b.lo >= 0 then make 0 b.hi
  else top

let shift_left a b =
  if b.lo < 0 || b.hi > 45 then top
  else mul a (make (1 lsl b.lo) (1 lsl b.hi))

let shift_right_arith a b =
  if b.lo < 0 || b.hi > 62 then top
  else make (a.lo asr b.lo) (a.hi asr b.lo)

let shift_right_logical a b =
  if a.lo < 0 then top
  else if b.lo < 0 then top
  else make 0 (a.hi asr b.lo)

let contains i n = i.lo <= n && n <= i.hi

let compare_result = make 0 1

let eval_bin (op : Ir.Types.alu_op) a b =
  match op with
  | Ir.Types.Add -> add a b
  | Ir.Types.Sub -> sub a b
  | Ir.Types.And -> bitwise_and a b
  | Ir.Types.Or | Ir.Types.Xor -> bitwise_or_xor a b
  | Ir.Types.Shl -> shift_left a b
  | Ir.Types.Shr -> shift_right_logical a b
  | Ir.Types.Ashr -> shift_right_arith a b
  | Ir.Types.Lt | Ir.Types.Le | Ir.Types.Eq | Ir.Types.Ne | Ir.Types.Gt
  | Ir.Types.Ge ->
    compare_result
  | Ir.Types.Min -> make (min a.lo b.lo) (min a.hi b.hi)
  | Ir.Types.Max -> make (max a.lo b.lo) (max a.hi b.hi)

let eval_un (op : Ir.Types.un_op) a =
  match op with
  | Ir.Types.Neg -> neg a
  | Ir.Types.Not -> sub (const (-1)) a
  | Ir.Types.Abs -> abs_iv a

let div_iv a b =
  (* magnitude can only shrink (|divisor| >= 1) *)
  let m = max (abs a.lo) (abs a.hi) in
  ignore b;
  make (-m) m

type report = {
  var : Ir.Instr.var;
  range : interval;
  declared : interval;
  fits : bool;
}

let pp_interval ppf i = Format.fprintf ppf "[%d, %d]" i.lo i.hi

let pp_report ppf r =
  Format.fprintf ppf "%s#%d width=%d inferred=%a declared=%a %s" r.var.vname
    r.var.vid r.var.vwidth pp_interval r.range pp_interval r.declared
    (if r.fits then "ok" else "OVERFLOW RISK")
