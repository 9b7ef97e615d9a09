module Ir = Hypar_ir
module C = Compile

let error fmt =
  Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

(* The raising paths, kept out of the instruction closures. *)
let undefined name r = error "read of undefined variable %s#%d" name r

let out_of_bounds aname i n =
  error "array %S index %d out of bounds [0, %d)" aname i n

let ( .%() ) (a : int array) i = Array.unsafe_get a i
let ( .%()<- ) (a : int array) i (v : int) = Array.unsafe_set a i v

(* --- operands and the generic closures ---------------------------------- *)

(* [generic] builds the closure of any instruction, keeping every check
   of the tree-walker in its order: operands right to left ([b] before
   [a]), a divisor's zero test before the dividend is read, an array's
   existence before its index.  The chains below use it for every shape
   they do not apply directly: a [Checked] operand, a tracked destination
   (some checked read inspects it), division and remainder, an
   undeclared or const array. *)

let reader regs defined = function
  | C.Imm k -> fun () -> k
  | C.Reg r -> fun () -> regs.%(r)
  | C.Checked (r, name) ->
    fun () ->
      if Bytes.unsafe_get defined r = '\001' then regs.%(r) else undefined name r

let writer regs defined (p : C.t) dst =
  if p.tracked.(dst) then (fun v ->
    regs.%(dst) <- v;
    Bytes.unsafe_set defined dst '\001')
  else fun v -> regs.%(dst) <- v

let generic regs defined data (p : C.t) ins : unit -> unit =
  let rd = reader regs defined and wr = writer regs defined p in
  match ins with
  | C.Bin { dst; op; a; b } ->
    let a = rd a and b = rd b and w = wr dst in
    fun () ->
      let vb = b () in
      let va = a () in
      w (Ir.Types.eval_alu_op op va vb)
  | C.Mul { dst; a; b } ->
    let a = rd a and b = rd b and w = wr dst in
    fun () ->
      let vb = b () in
      let va = a () in
      w (va * vb)
  | C.Div { dst; a; b } ->
    let a = rd a and b = rd b and w = wr dst in
    fun () ->
      let d = b () in
      if d = 0 then error "division by zero";
      w (a () / d)
  | C.Rem { dst; a; b } ->
    let a = rd a and b = rd b and w = wr dst in
    fun () ->
      let d = b () in
      if d = 0 then error "remainder by zero";
      w (a () mod d)
  | C.Un { dst; op; a } ->
    let a = rd a and w = wr dst in
    fun () -> w (Ir.Types.eval_un_op op (a ()))
  | C.Mov { dst; src } ->
    let src = rd src and w = wr dst in
    fun () -> w (src ())
  | C.Select { dst; cond; if_true; if_false } ->
    let c = rd cond and t = rd if_true and f = rd if_false and w = wr dst in
    fun () -> w (if c () <> 0 then t () else f ())
  | C.Load { arr; aname; _ } | C.Store { arr; aname; const = false; _ }
    when arr < 0 ->
    fun () -> error "access to undeclared array %S" aname
  | C.Load { dst; arr; aname; index } ->
    let a = data.(arr) and index = rd index and w = wr dst in
    let n = Array.length a in
    fun () ->
      let i = index () in
      if i < 0 || i >= n then out_of_bounds aname i n;
      w a.%(i)
  | C.Store { aname; const = true; _ } ->
    fun () -> error "store to const array %S" aname
  | C.Store { arr; aname; index; value; _ } ->
    let a = data.(arr) and index = rd index and value = rd value in
    let n = Array.length a in
    fun () ->
      let i = index () in
      if i < 0 || i >= n then out_of_bounds aname i n;
      a.%(i) <- value ()

(* --- chains ------------------------------------------------------------- *)

(* A batched block runs as one chain: each instruction's closure does its
   work and tail-calls [next], the rest of the block, and the block's last
   closure returns the next block id.  The common shapes — an untracked
   destination and operands that are immediates or registers defined on
   every path — are applied directly; everything else wraps [generic].

   Two fusions happen inside a chain.  A compare whose result feeds the
   block's branch becomes one closure with the branch ([cmp_branch]).  An
   instruction whose untracked result the next instruction reads exactly
   once becomes a value closure ([value]: it writes its destination and
   returns the value) that the next instruction, specialised to take it
   ([consume], or [cmp_branch] for the compare that ends a block), calls
   in place of its register read.  Both still write every destination
   the unfused code writes, and the producer still runs all of its checks
   before the consumer runs any. *)

(* [k op b] as [b op' k]: the operand order is unobservable once neither
   read can fail. *)
let mirrored : Ir.Types.alu_op -> Ir.Types.alu_op option = function
  | (Add | And | Or | Xor | Eq | Ne | Min | Max) as op -> Some op
  | Lt -> Some Gt
  | Le -> Some Ge
  | Gt -> Some Lt
  | Ge -> Some Le
  | Sub | Shl | Shr | Ashr -> None

(* An immediate left operand moves to the right where that keeps the
   value ([k < r] becomes [r > k]), so the builders below meet an
   immediate on the left only in [k - r]. *)
let canon (ins : C.instr) : C.instr =
  match ins with
  | C.Bin ({ op; a = C.Imm _ as k; b = C.Reg _ as r; _ } as i) -> (
    match mirrored op with Some op -> C.Bin { i with op; a = r; b = k } | None -> ins)
  | C.Mul ({ a = C.Imm _ as k; b = C.Reg _ as r; _ } as i) ->
    C.Mul { i with a = r; b = k }
  | ins -> ins

let[@inline] put regs dst v =
  regs.%(dst) <- v;
  v

(* [dst <- a op b] on two registers, then [next]. *)
let bin_rr regs dst (op : Ir.Types.alu_op) a b next : unit -> int =
  match op with
  | Add -> fun () -> regs.%(dst) <- regs.%(a) + regs.%(b); next ()
  | Sub -> fun () -> regs.%(dst) <- regs.%(a) - regs.%(b); next ()
  | And -> fun () -> regs.%(dst) <- regs.%(a) land regs.%(b); next ()
  | Or -> fun () -> regs.%(dst) <- regs.%(a) lor regs.%(b); next ()
  | Xor -> fun () -> regs.%(dst) <- regs.%(a) lxor regs.%(b); next ()
  | Shl -> fun () -> regs.%(dst) <- regs.%(a) lsl Ir.Types.clamp_shift regs.%(b); next ()
  | Shr -> fun () -> regs.%(dst) <- regs.%(a) lsr Ir.Types.clamp_shift regs.%(b); next ()
  | Ashr -> fun () -> regs.%(dst) <- regs.%(a) asr Ir.Types.clamp_shift regs.%(b); next ()
  | Lt -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) < regs.%(b)); next ()
  | Le -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) <= regs.%(b)); next ()
  | Eq -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) = regs.%(b)); next ()
  | Ne -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) <> regs.%(b)); next ()
  | Gt -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) > regs.%(b)); next ()
  | Ge -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) >= regs.%(b)); next ()
  | Min | Max ->
    fun () -> regs.%(dst) <- Ir.Types.eval_alu_op op regs.%(a) regs.%(b); next ()

(* [dst <- a op k] on a register and an immediate (a shift amount is
   clamped once, here), then [next]. *)
let bin_ri regs dst (op : Ir.Types.alu_op) a k next : unit -> int =
  match op with
  | Add -> fun () -> regs.%(dst) <- regs.%(a) + k; next ()
  | Sub -> fun () -> regs.%(dst) <- regs.%(a) - k; next ()
  | And -> fun () -> regs.%(dst) <- regs.%(a) land k; next ()
  | Or -> fun () -> regs.%(dst) <- regs.%(a) lor k; next ()
  | Xor -> fun () -> regs.%(dst) <- regs.%(a) lxor k; next ()
  | Shl ->
    let k = Ir.Types.clamp_shift k in
    fun () -> regs.%(dst) <- regs.%(a) lsl k; next ()
  | Shr ->
    let k = Ir.Types.clamp_shift k in
    fun () -> regs.%(dst) <- regs.%(a) lsr k; next ()
  | Ashr ->
    let k = Ir.Types.clamp_shift k in
    fun () -> regs.%(dst) <- regs.%(a) asr k; next ()
  | Lt -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) < k); next ()
  | Le -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) <= k); next ()
  | Eq -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) = k); next ()
  | Ne -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) <> k); next ()
  | Gt -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) > k); next ()
  | Ge -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) >= k); next ()
  | Min | Max -> fun () -> regs.%(dst) <- Ir.Types.eval_alu_op op regs.%(a) k; next ()

(* [bin_rr] as a producer: writes [dst] and returns the value. *)
let val_rr regs dst (op : Ir.Types.alu_op) a b : unit -> int =
  match op with
  | Add -> fun () -> put regs dst (regs.%(a) + regs.%(b))
  | Sub -> fun () -> put regs dst (regs.%(a) - regs.%(b))
  | And -> fun () -> put regs dst (regs.%(a) land regs.%(b))
  | Or -> fun () -> put regs dst (regs.%(a) lor regs.%(b))
  | Xor -> fun () -> put regs dst (regs.%(a) lxor regs.%(b))
  | Shl -> fun () -> put regs dst (regs.%(a) lsl Ir.Types.clamp_shift regs.%(b))
  | Shr -> fun () -> put regs dst (regs.%(a) lsr Ir.Types.clamp_shift regs.%(b))
  | Ashr -> fun () -> put regs dst (regs.%(a) asr Ir.Types.clamp_shift regs.%(b))
  | Lt -> fun () -> put regs dst (Bool.to_int (regs.%(a) < regs.%(b)))
  | Le -> fun () -> put regs dst (Bool.to_int (regs.%(a) <= regs.%(b)))
  | Eq -> fun () -> put regs dst (Bool.to_int (regs.%(a) = regs.%(b)))
  | Ne -> fun () -> put regs dst (Bool.to_int (regs.%(a) <> regs.%(b)))
  | Gt -> fun () -> put regs dst (Bool.to_int (regs.%(a) > regs.%(b)))
  | Ge -> fun () -> put regs dst (Bool.to_int (regs.%(a) >= regs.%(b)))
  | Min | Max -> fun () -> put regs dst (Ir.Types.eval_alu_op op regs.%(a) regs.%(b))

(* [bin_ri] as a producer. *)
let val_ri regs dst (op : Ir.Types.alu_op) a k : unit -> int =
  match op with
  | Add -> fun () -> put regs dst (regs.%(a) + k)
  | Sub -> fun () -> put regs dst (regs.%(a) - k)
  | And -> fun () -> put regs dst (regs.%(a) land k)
  | Or -> fun () -> put regs dst (regs.%(a) lor k)
  | Xor -> fun () -> put regs dst (regs.%(a) lxor k)
  | Shl ->
    let k = Ir.Types.clamp_shift k in
    fun () -> put regs dst (regs.%(a) lsl k)
  | Shr ->
    let k = Ir.Types.clamp_shift k in
    fun () -> put regs dst (regs.%(a) lsr k)
  | Ashr ->
    let k = Ir.Types.clamp_shift k in
    fun () -> put regs dst (regs.%(a) asr k)
  | Lt -> fun () -> put regs dst (Bool.to_int (regs.%(a) < k))
  | Le -> fun () -> put regs dst (Bool.to_int (regs.%(a) <= k))
  | Eq -> fun () -> put regs dst (Bool.to_int (regs.%(a) = k))
  | Ne -> fun () -> put regs dst (Bool.to_int (regs.%(a) <> k))
  | Gt -> fun () -> put regs dst (Bool.to_int (regs.%(a) > k))
  | Ge -> fun () -> put regs dst (Bool.to_int (regs.%(a) >= k))
  | Min | Max -> fun () -> put regs dst (Ir.Types.eval_alu_op op regs.%(a) k)

(* [dst <- v op b], [v] the producer's value and [b] a register, then
   [next]. *)
let use_vr regs dst (op : Ir.Types.alu_op) v b next : unit -> int =
  match op with
  | Add -> fun () -> let x = v () in regs.%(dst) <- x + regs.%(b); next ()
  | Sub -> fun () -> let x = v () in regs.%(dst) <- x - regs.%(b); next ()
  | And -> fun () -> let x = v () in regs.%(dst) <- x land regs.%(b); next ()
  | Or -> fun () -> let x = v () in regs.%(dst) <- x lor regs.%(b); next ()
  | Xor -> fun () -> let x = v () in regs.%(dst) <- x lxor regs.%(b); next ()
  | Shl ->
    fun () -> let x = v () in regs.%(dst) <- x lsl Ir.Types.clamp_shift regs.%(b); next ()
  | Shr ->
    fun () -> let x = v () in regs.%(dst) <- x lsr Ir.Types.clamp_shift regs.%(b); next ()
  | Ashr ->
    fun () -> let x = v () in regs.%(dst) <- x asr Ir.Types.clamp_shift regs.%(b); next ()
  | Lt -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x < regs.%(b)); next ()
  | Le -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x <= regs.%(b)); next ()
  | Eq -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x = regs.%(b)); next ()
  | Ne -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x <> regs.%(b)); next ()
  | Gt -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x > regs.%(b)); next ()
  | Ge -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x >= regs.%(b)); next ()
  | Min | Max ->
    fun () -> let x = v () in regs.%(dst) <- Ir.Types.eval_alu_op op x regs.%(b); next ()

(* [dst <- v op k], [v] the producer's value and [k] an immediate, then
   [next]. *)
let use_vk regs dst (op : Ir.Types.alu_op) v k next : unit -> int =
  match op with
  | Add -> fun () -> let x = v () in regs.%(dst) <- x + k; next ()
  | Sub -> fun () -> let x = v () in regs.%(dst) <- x - k; next ()
  | And -> fun () -> let x = v () in regs.%(dst) <- x land k; next ()
  | Or -> fun () -> let x = v () in regs.%(dst) <- x lor k; next ()
  | Xor -> fun () -> let x = v () in regs.%(dst) <- x lxor k; next ()
  | Shl ->
    let k = Ir.Types.clamp_shift k in
    fun () -> let x = v () in regs.%(dst) <- x lsl k; next ()
  | Shr ->
    let k = Ir.Types.clamp_shift k in
    fun () -> let x = v () in regs.%(dst) <- x lsr k; next ()
  | Ashr ->
    let k = Ir.Types.clamp_shift k in
    fun () -> let x = v () in regs.%(dst) <- x asr k; next ()
  | Lt -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x < k); next ()
  | Le -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x <= k); next ()
  | Eq -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x = k); next ()
  | Ne -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x <> k); next ()
  | Gt -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x > k); next ()
  | Ge -> fun () -> let x = v () in regs.%(dst) <- Bool.to_int (x >= k); next ()
  | Min | Max ->
    fun () -> let x = v () in regs.%(dst) <- Ir.Types.eval_alu_op op x k; next ()

(* The chain closure of one instruction (in [canon] form). *)
let link regs defined data (p : C.t) ins next : unit -> int =
  let plain dst = not p.tracked.(dst) in
  match ins with
  | C.Bin { dst; op; a = C.Reg a; b = C.Reg b } when plain dst ->
    bin_rr regs dst op a b next
  | C.Bin { dst; op; a = C.Reg a; b = C.Imm k } when plain dst ->
    bin_ri regs dst op a k next
  | C.Bin { dst; op = Sub; a = C.Imm k; b = C.Reg b } when plain dst ->
    fun () -> regs.%(dst) <- k - regs.%(b); next ()
  | C.Mul { dst; a = C.Reg a; b = C.Reg b } when plain dst ->
    fun () -> regs.%(dst) <- regs.%(a) * regs.%(b); next ()
  | C.Mul { dst; a = C.Reg a; b = C.Imm k } when plain dst ->
    fun () -> regs.%(dst) <- regs.%(a) * k; next ()
  | C.Un { dst; op; a = C.Reg a } when plain dst -> (
    match op with
    | Neg -> fun () -> regs.%(dst) <- - regs.%(a); next ()
    | Not -> fun () -> regs.%(dst) <- lnot regs.%(a); next ()
    | Abs -> fun () -> regs.%(dst) <- abs regs.%(a); next ())
  | C.Mov { dst; src = C.Reg s } when plain dst ->
    fun () -> regs.%(dst) <- regs.%(s); next ()
  | C.Mov { dst; src = C.Imm k } when plain dst -> fun () -> regs.%(dst) <- k; next ()
  | C.Select { dst; cond = C.Reg c; if_true = C.Reg t; if_false = C.Reg f }
    when plain dst ->
    fun () ->
      regs.%(dst) <- (if regs.%(c) <> 0 then regs.%(t) else regs.%(f));
      next ()
  | C.Load { dst; arr; aname; index = C.Reg r } when plain dst && arr >= 0 ->
    let a = data.(arr) in
    let n = Array.length a in
    fun () ->
      let i = regs.%(r) in
      if i < 0 || i >= n then out_of_bounds aname i n;
      regs.%(dst) <- a.%(i);
      next ()
  | C.Store { arr; aname; const = false; index = C.Reg r; value = C.Reg v }
    when arr >= 0 ->
    let a = data.(arr) in
    let n = Array.length a in
    fun () ->
      let i = regs.%(r) in
      if i < 0 || i >= n then out_of_bounds aname i n;
      a.%(i) <- regs.%(v);
      next ()
  | C.Store { arr; aname; const = false; index = C.Reg r; value = C.Imm k }
    when arr >= 0 ->
    let a = data.(arr) in
    let n = Array.length a in
    fun () ->
      let i = regs.%(r) in
      if i < 0 || i >= n then out_of_bounds aname i n;
      a.%(i) <- k;
      next ()
  | ins ->
    let g = generic regs defined data p ins in
    fun () -> g (); next ()

(* The producer of a fused pair: [Some (dst, v)], [v] the value closure
   of a [link] shape whose destination [dst] is untracked. *)
let value regs data (p : C.t) ins : (int * (unit -> int)) option =
  let plain dst = not p.tracked.(dst) in
  let some dst v = Some (dst, v) in
  match ins with
  | C.Bin { dst; op; a = C.Reg a; b = C.Reg b } when plain dst ->
    some dst (val_rr regs dst op a b)
  | C.Bin { dst; op; a = C.Reg a; b = C.Imm k } when plain dst ->
    some dst (val_ri regs dst op a k)
  | C.Bin { dst; op = Sub; a = C.Imm k; b = C.Reg b } when plain dst ->
    some dst (fun () -> put regs dst (k - regs.%(b)))
  | C.Mul { dst; a = C.Reg a; b = C.Reg b } when plain dst ->
    some dst (fun () -> put regs dst (regs.%(a) * regs.%(b)))
  | C.Mul { dst; a = C.Reg a; b = C.Imm k } when plain dst ->
    some dst (fun () -> put regs dst (regs.%(a) * k))
  | C.Un { dst; op; a = C.Reg a } when plain dst ->
    some dst
      (match op with
      | Neg -> fun () -> put regs dst (- regs.%(a))
      | Not -> fun () -> put regs dst (lnot regs.%(a))
      | Abs -> fun () -> put regs dst (abs regs.%(a)))
  | C.Mov { dst; src = C.Reg s } when plain dst ->
    some dst (fun () -> put regs dst regs.%(s))
  | C.Mov { dst; src = C.Imm k } when plain dst -> some dst (fun () -> put regs dst k)
  | C.Select { dst; cond = C.Reg c; if_true = C.Reg t; if_false = C.Reg f }
    when plain dst ->
    some dst (fun () -> put regs dst (if regs.%(c) <> 0 then regs.%(t) else regs.%(f)))
  | C.Load { dst; arr; aname; index = C.Reg r } when plain dst && arr >= 0 ->
    let a = data.(arr) in
    let n = Array.length a in
    some dst
      (fun () ->
        let i = regs.%(r) in
        if i < 0 || i >= n then out_of_bounds aname i n;
        put regs dst a.%(i))
  | _ -> None

(* The consumer of a fused pair: [ins] (in [canon] form) with its one
   read of register [t] replaced by a call to the producer's value
   closure [v], then [next]; [None] for any other shape. *)
let consume regs data (p : C.t) t v ins next : (unit -> int) option =
  let plain dst = not p.tracked.(dst) in
  match ins with
  | C.Bin { dst; op; a = C.Reg a; b } when a = t && plain dst -> (
    match b with
    | C.Reg b -> Some (use_vr regs dst op v b next)
    | C.Imm k -> Some (use_vk regs dst op v k next)
    | C.Checked _ -> None)
  | C.Bin { dst; op; a; b = C.Reg b } when b = t && plain dst -> (
    match (a, mirrored op, op) with
    | C.Reg a, Some op, _ -> Some (use_vr regs dst op v a next)
    | C.Reg a, None, Sub ->
      Some (fun () -> let x = v () in regs.%(dst) <- regs.%(a) - x; next ())
    | C.Imm k, None, Sub -> Some (fun () -> let x = v () in regs.%(dst) <- k - x; next ())
    | _ -> None)
  | C.Mul { dst; a = C.Reg a; b } when a = t && plain dst -> (
    match b with
    | C.Reg b -> Some (fun () -> let x = v () in regs.%(dst) <- x * regs.%(b); next ())
    | C.Imm k -> Some (fun () -> let x = v () in regs.%(dst) <- x * k; next ())
    | C.Checked _ -> None)
  | C.Mul { dst; a = C.Reg a; b = C.Reg b } when b = t && plain dst ->
    Some (fun () -> let x = v () in regs.%(dst) <- regs.%(a) * x; next ())
  | C.Load { dst; arr; aname; index = C.Reg r } when r = t && plain dst && arr >= 0 ->
    let a = data.(arr) in
    let n = Array.length a in
    Some
      (fun () ->
        let i = v () in
        if i < 0 || i >= n then out_of_bounds aname i n;
        regs.%(dst) <- a.%(i);
        next ())
  | C.Store { arr; aname; const = false; index = C.Reg r; value }
    when r = t && arr >= 0 -> (
    let a = data.(arr) in
    let n = Array.length a in
    match value with
    | C.Reg s ->
      Some
        (fun () ->
          let i = v () in
          if i < 0 || i >= n then out_of_bounds aname i n;
          a.%(i) <- regs.%(s);
          next ())
    | C.Imm k ->
      Some
        (fun () ->
          let i = v () in
          if i < 0 || i >= n then out_of_bounds aname i n;
          a.%(i) <- k;
          next ())
    | C.Checked _ -> None)
  | C.Store { arr; aname; const = false; index; value = C.Reg s }
    when s = t && arr >= 0 -> (
    let a = data.(arr) in
    let n = Array.length a in
    match index with
    | C.Reg r ->
      Some
        (fun () ->
          let x = v () in
          let i = regs.%(r) in
          if i < 0 || i >= n then out_of_bounds aname i n;
          a.%(i) <- x;
          next ())
    | C.Imm i ->
      Some
        (fun () ->
          let x = v () in
          if i < 0 || i >= n then out_of_bounds aname i n;
          a.%(i) <- x;
          next ())
    | C.Checked _ -> None)
  | _ -> None

(* A terminator bumps its edge slot and returns the next block id, or
   [-1] after storing the return value. *)
let terminator regs defined counts ret (t : C.terminator) : unit -> int =
  match t with
  | C.Jump { target; edge } ->
    fun () ->
      counts.%(edge) <- counts.%(edge) + 1;
      target
  | C.Branch { cond = C.Reg c; if_true; edge_true; if_false; edge_false } ->
    fun () ->
      if regs.%(c) <> 0 then begin
        counts.%(edge_true) <- counts.%(edge_true) + 1;
        if_true
      end
      else begin
        counts.%(edge_false) <- counts.%(edge_false) + 1;
        if_false
      end
  | C.Branch { cond; if_true; edge_true; if_false; edge_false } ->
    let c = reader regs defined cond in
    fun () ->
      if c () <> 0 then begin
        counts.%(edge_true) <- counts.%(edge_true) + 1;
        if_true
      end
      else begin
        counts.%(edge_false) <- counts.%(edge_false) + 1;
        if_false
      end
  | C.Return None -> fun () -> -1
  | C.Return (Some op) ->
    let v = reader regs defined op in
    fun () ->
      ret := Some (v ());
      -1

(* The compare's result is written, then the taken side's edge slot is
   bumped and its target returned. *)
let[@inline] taken regs counts dst c if_true edge_true if_false edge_false =
  regs.%(dst) <- Bool.to_int c;
  if c then begin
    counts.%(edge_true) <- counts.%(edge_true) + 1;
    if_true
  end
  else begin
    counts.%(edge_false) <- counts.%(edge_false) + 1;
    if_false
  end

(* How many of [ins]'s operands read register [t]. *)
let reads t ins =
  let n = function C.Reg r | C.Checked (r, _) when r = t -> 1 | _ -> 0 in
  match ins with
  | C.Bin { a; b; _ } | C.Mul { a; b; _ } | C.Div { a; b; _ } | C.Rem { a; b; _ } ->
    n a + n b
  | C.Un { a; _ } -> n a
  | C.Mov { src; _ } -> n src
  | C.Select { cond; if_true; if_false; _ } -> n cond + n if_true + n if_false
  | C.Load { index; _ } -> n index
  | C.Store { index; value; _ } -> n index + n value

(* A block's last instruction, a compare [dst <- a op b] (in [canon]
   form: [a] a register, [b] a register or an immediate, [dst]
   untracked), and its branch on [dst], as the one closure that ends the
   chain: [Some (1, closure)], or [None] for any other pair.  Where
   [producer] is [Some (a, v)] and the compare reads [a] only once, the
   compare also consumes that fused producer: [Some (2, closure)]. *)
let cmp_branch regs counts (p : C.t) producer ins (term : C.terminator) =
  match (ins, term) with
  | ( C.Bin { dst; op; a = C.Reg a; b },
      C.Branch
        { cond = C.Reg c; if_true = t; edge_true = et; if_false = f; edge_false = ef } )
    when c = dst && not p.tracked.(dst) -> (
    match producer with
    | Some (r, v) when r = a && reads r ins = 1 -> (
      Option.map (fun f -> (2, f))
      @@
      match (op, b) with
      | Lt, C.Reg b ->
        Some (fun () -> let x = v () in taken regs counts dst (x < regs.%(b)) t et f ef)
      | Le, C.Reg b ->
        Some (fun () -> let x = v () in taken regs counts dst (x <= regs.%(b)) t et f ef)
      | Eq, C.Reg b ->
        Some (fun () -> let x = v () in taken regs counts dst (x = regs.%(b)) t et f ef)
      | Ne, C.Reg b ->
        Some (fun () -> let x = v () in taken regs counts dst (x <> regs.%(b)) t et f ef)
      | Gt, C.Reg b ->
        Some (fun () -> let x = v () in taken regs counts dst (x > regs.%(b)) t et f ef)
      | Ge, C.Reg b ->
        Some (fun () -> let x = v () in taken regs counts dst (x >= regs.%(b)) t et f ef)
      | Lt, C.Imm k ->
        Some (fun () -> let x = v () in taken regs counts dst (x < k) t et f ef)
      | Le, C.Imm k ->
        Some (fun () -> let x = v () in taken regs counts dst (x <= k) t et f ef)
      | Eq, C.Imm k ->
        Some (fun () -> let x = v () in taken regs counts dst (x = k) t et f ef)
      | Ne, C.Imm k ->
        Some (fun () -> let x = v () in taken regs counts dst (x <> k) t et f ef)
      | Gt, C.Imm k ->
        Some (fun () -> let x = v () in taken regs counts dst (x > k) t et f ef)
      | Ge, C.Imm k ->
        Some (fun () -> let x = v () in taken regs counts dst (x >= k) t et f ef)
      | _ -> None)
    | _ -> (
      Option.map (fun f -> (1, f))
      @@
      match (op, b) with
      | Lt, C.Reg b ->
        Some (fun () -> taken regs counts dst (regs.%(a) < regs.%(b)) t et f ef)
      | Le, C.Reg b ->
        Some (fun () -> taken regs counts dst (regs.%(a) <= regs.%(b)) t et f ef)
      | Eq, C.Reg b ->
        Some (fun () -> taken regs counts dst (regs.%(a) = regs.%(b)) t et f ef)
      | Ne, C.Reg b ->
        Some (fun () -> taken regs counts dst (regs.%(a) <> regs.%(b)) t et f ef)
      | Gt, C.Reg b ->
        Some (fun () -> taken regs counts dst (regs.%(a) > regs.%(b)) t et f ef)
      | Ge, C.Reg b ->
        Some (fun () -> taken regs counts dst (regs.%(a) >= regs.%(b)) t et f ef)
      | Lt, C.Imm k ->
        Some (fun () -> taken regs counts dst (regs.%(a) < k) t et f ef)
      | Le, C.Imm k ->
        Some (fun () -> taken regs counts dst (regs.%(a) <= k) t et f ef)
      | Eq, C.Imm k ->
        Some (fun () -> taken regs counts dst (regs.%(a) = k) t et f ef)
      | Ne, C.Imm k ->
        Some (fun () -> taken regs counts dst (regs.%(a) <> k) t et f ef)
      | Gt, C.Imm k ->
        Some (fun () -> taken regs counts dst (regs.%(a) > k) t et f ef)
      | Ge, C.Imm k ->
        Some (fun () -> taken regs counts dst (regs.%(a) >= k) t et f ef)
      | _ -> None))
  | _ -> None

(* The chain of a block whose terminator closure is [term]: a fused
   compare and branch at the end where [cmp_branch] applies, then pairs
   fused right to left, every other instruction linked on its own. *)
let chain regs defined data counts (p : C.t) (b : C.block) term : unit -> int =
  let body = Array.map canon b.body in
  let n = Array.length body in
  let producer = if n < 2 then None else value regs data p body.(n - 2) in
  let n, tail =
    match if n = 0 then None else cmp_branch regs counts p producer body.(n - 1) b.term with
    | Some (k, f) -> (n - k, f)
    | None -> (n, term)
  in
  (* instructions [0, k) are left to link; [next] runs the rest *)
  let rec build k next =
    if k = 0 then next
    else
      let fused =
        if k < 2 then None
        else
          match value regs data p body.(k - 2) with
          | Some (t, v) when reads t body.(k - 1) = 1 ->
            consume regs data p t v body.(k - 1) next
          | _ -> None
      in
      match fused with
      | Some f -> build (k - 2) f
      | None -> build (k - 1) (link regs defined data p body.(k - 1) next)
  in
  build n tail

(* --- the block loop ------------------------------------------------------ *)

(* Runs a flattened program with semantics byte-identical to [Interp.run].
   The oracle ticks once per executed unit (a block, then each of its
   instructions): the [max_steps] check, [poll] when the step count is a
   multiple of 1024, then the count.  Here [stop] is the first step count
   at which a tick would do anything but count: the [max_steps] limit or
   the next poll point.  A block whose [len + 1] units all fall before
   [stop] adds [len + 1] at once and runs as its chain — every tick it
   skips would only have counted, so the steps, the poll calls and the
   point of any exhaustion stay exactly the oracle's, fused pairs or not.
   Any other block ticks unit by unit as the oracle does, running one
   unfused closure per unit (built on the block's first such visit), then
   [stop] moves to the next such step. *)
let exec ?(max_steps = Interp.default_max_steps) ?poll ?(inputs = []) (p : C.t) =
  let max_steps = min max_steps Interp.default_max_steps in
  let regs = Array.make p.nregs 0 in
  let defined = Bytes.make p.nregs '\000' in
  let data =
    Array.map
      (fun (d : Ir.Cdfg.array_decl) ->
        match d.init with
        | Some init ->
          let a = Array.make d.size 0 in
          Array.blit init 0 a 0 (min (Array.length init) d.size);
          a
        | None -> Array.make d.size 0)
      p.decls
  in
  List.iter
    (fun (name, values) ->
      match Hashtbl.find_opt p.handle_of name with
      | None -> error "input for undeclared array %S" name
      | Some h ->
        if Hashtbl.mem p.const_names name then
          error "input for const array %S" name;
        let a = data.(h) in
        Array.blit values 0 a 0 (min (Array.length values) (Array.length a)))
    inputs;
  let nblocks = Array.length p.blocks in
  let counts = Array.make (Array.length p.edge_keys) 0 in
  let ret = ref None in
  let terms =
    Array.map (fun (b : C.block) -> terminator regs defined counts ret b.term) p.blocks
  in
  let chains =
    Array.mapi (fun i b -> chain regs defined data counts p b terms.(i)) p.blocks
  in
  let lens = Array.map (fun (b : C.block) -> Array.length b.body) p.blocks in
  (* the ticking path's closures, one per unit; a block not yet visited
     there holds [[||]], which is also the right array for an empty body *)
  let units = Array.make nblocks [||] in
  let halt () = 0 in
  let units_of i =
    let u = units.(i) in
    if Array.length u = lens.(i) then u
    else begin
      let u =
        Array.map (fun ins -> link regs defined data p (canon ins) halt) p.blocks.(i).body
      in
      units.(i) <- u;
      u
    end
  in
  let steps = ref 0 in
  let tick () =
    let s = !steps in
    if s >= max_steps then raise (Interp.Fuel_exhausted { steps = s });
    (match poll with Some check when s land 1023 = 0 -> check () | Some _ | None -> ());
    steps := s + 1
  in
  let horizon s =
    match poll with
    | Some _ -> min max_steps ((s + 1023) land lnot 1023)
    | None -> max_steps
  in
  let stop = ref (horizon 0) in
  let cur = ref p.entry in
  while !cur >= 0 do
    let i = !cur in
    let len = Array.unsafe_get lens i in
    let s = !steps in
    if s + len < !stop then begin
      steps := s + len + 1;
      cur := (Array.unsafe_get chains i) ()
    end
    else begin
      let body = units_of i in
      tick ();
      for k = 0 to len - 1 do
        tick ();
        ignore ((Array.unsafe_get body k) ())
      done;
      stop := horizon !steps;
      cur := (Array.unsafe_get terms i) ()
    end
  done;
  (* Every count below is a product of the visit counts: a block is
     entered once per traversal of an in-edge (plus once for the entry),
     and every *completed* run executed each visited block's full body
     — an aborted run never reaches this point. *)
  let exec_freq = Array.make nblocks 0 in
  exec_freq.(p.entry) <- 1;
  Array.iteri
    (fun s (_, dst) -> exec_freq.(dst) <- exec_freq.(dst) + counts.(s))
    p.edge_keys;
  let mem_reads = Array.make nblocks 0 in
  let mem_writes = Array.make nblocks 0 in
  let instrs_executed = ref 0 in
  let blocks_executed = ref 0 in
  for i = 0 to nblocks - 1 do
    let b = p.blocks.(i) in
    mem_reads.(i) <- exec_freq.(i) * b.C.static_loads;
    mem_writes.(i) <- exec_freq.(i) * b.C.static_stores;
    instrs_executed := !instrs_executed + (exec_freq.(i) * Array.length b.C.body);
    blocks_executed := !blocks_executed + exec_freq.(i)
  done;
  let arrays =
    Array.to_list
      (Array.map
         (fun (d : Ir.Cdfg.array_decl) ->
           (d.aname, data.(Hashtbl.find p.handle_of d.aname)))
         p.decls)
  in
  let edge_freq = ref [] in
  for s = Array.length counts - 1 downto 0 do
    if counts.(s) > 0 then edge_freq := (p.edge_keys.(s), counts.(s)) :: !edge_freq
  done;
  let edge_freq = List.sort compare !edge_freq in
  if Hypar_obs.Sink.enabled () then begin
    Hypar_obs.Counter.incr ~by:!instrs_executed "profile.instrs_executed";
    Hypar_obs.Counter.incr ~by:!blocks_executed "profile.blocks_executed"
  end;
  {
    Interp.exec_freq;
    mem_reads;
    mem_writes;
    edge_freq;
    instrs_executed = !instrs_executed;
    blocks_executed = !blocks_executed;
    return_value = !ret;
    arrays;
  }

let run ?max_steps ?poll ?inputs cdfg =
  Hypar_obs.Span.with_ ~cat:"profile" "profile.run" @@ fun () ->
  exec ?max_steps ?poll ?inputs (Compile.compile cdfg)
