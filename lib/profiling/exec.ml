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

(* --- instruction closures ---------------------------------------------- *)

(* Each instruction becomes one [unit -> unit] closure over the run's
   register file and arrays.  The common shapes — an untracked
   destination (no checked read ever inspects it) and operands that are
   immediates or registers defined on every path — get closures with the
   operation applied directly.  Everything else goes through [generic],
   which keeps every check of the tree-walker in its order: operands
   right to left ([b] before [a]), a divisor's zero test before the
   dividend is read, an array's existence before its index. *)

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

(* [dst <- a op b] on two registers. *)
let bin_rr regs dst (op : Ir.Types.alu_op) a b : unit -> unit =
  match op with
  | Add -> fun () -> regs.%(dst) <- regs.%(a) + regs.%(b)
  | Sub -> fun () -> regs.%(dst) <- regs.%(a) - regs.%(b)
  | And -> fun () -> regs.%(dst) <- regs.%(a) land regs.%(b)
  | Or -> fun () -> regs.%(dst) <- regs.%(a) lor regs.%(b)
  | Xor -> fun () -> regs.%(dst) <- regs.%(a) lxor regs.%(b)
  | Shl -> fun () -> regs.%(dst) <- regs.%(a) lsl Ir.Types.clamp_shift regs.%(b)
  | Shr -> fun () -> regs.%(dst) <- regs.%(a) lsr Ir.Types.clamp_shift regs.%(b)
  | Ashr -> fun () -> regs.%(dst) <- regs.%(a) asr Ir.Types.clamp_shift regs.%(b)
  | Lt -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) < regs.%(b))
  | Le -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) <= regs.%(b))
  | Eq -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) = regs.%(b))
  | Ne -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) <> regs.%(b))
  | Gt -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) > regs.%(b))
  | Ge -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) >= regs.%(b))
  | Min | Max -> fun () -> regs.%(dst) <- Ir.Types.eval_alu_op op regs.%(a) regs.%(b)

(* [dst <- a op k] on a register and an immediate. *)
let bin_ri regs dst (op : Ir.Types.alu_op) a k : unit -> unit =
  match op with
  | Add -> fun () -> regs.%(dst) <- regs.%(a) + k
  | Sub -> fun () -> regs.%(dst) <- regs.%(a) - k
  | And -> fun () -> regs.%(dst) <- regs.%(a) land k
  | Or -> fun () -> regs.%(dst) <- regs.%(a) lor k
  | Xor -> fun () -> regs.%(dst) <- regs.%(a) lxor k
  | Shl ->
    let k = Ir.Types.clamp_shift k in
    fun () -> regs.%(dst) <- regs.%(a) lsl k
  | Shr ->
    let k = Ir.Types.clamp_shift k in
    fun () -> regs.%(dst) <- regs.%(a) lsr k
  | Ashr ->
    let k = Ir.Types.clamp_shift k in
    fun () -> regs.%(dst) <- regs.%(a) asr k
  | Lt -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) < k)
  | Le -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) <= k)
  | Eq -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) = k)
  | Ne -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) <> k)
  | Gt -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) > k)
  | Ge -> fun () -> regs.%(dst) <- Bool.to_int (regs.%(a) >= k)
  | Min | Max -> fun () -> regs.%(dst) <- Ir.Types.eval_alu_op op regs.%(a) k

(* [k op b] as [b op' k]: the operand order is unobservable once neither
   read can fail. *)
let mirrored : Ir.Types.alu_op -> Ir.Types.alu_op option = function
  | (Add | And | Or | Xor | Eq | Ne | Min | Max) as op -> Some op
  | Lt -> Some Gt
  | Le -> Some Ge
  | Gt -> Some Lt
  | Ge -> Some Le
  | Sub | Shl | Shr | Ashr -> None

let instr regs defined data (p : C.t) ins : unit -> unit =
  let plain dst = not p.tracked.(dst) in
  match ins with
  | C.Bin { dst; op; a = C.Reg a; b = C.Reg b } when plain dst ->
    bin_rr regs dst op a b
  | C.Bin { dst; op; a = C.Reg a; b = C.Imm k } when plain dst ->
    bin_ri regs dst op a k
  | C.Bin { dst; op; a = C.Imm k; b = C.Reg b } when plain dst -> (
    match (mirrored op, op) with
    | Some op, _ -> bin_ri regs dst op b k
    | None, Sub -> fun () -> regs.%(dst) <- k - regs.%(b)
    | None, _ -> generic regs defined data p ins)
  | C.Mul { dst; a = C.Reg a; b = C.Reg b } when plain dst ->
    fun () -> regs.%(dst) <- regs.%(a) * regs.%(b)
  | (C.Mul { dst; a = C.Reg a; b = C.Imm k } | C.Mul { dst; a = C.Imm k; b = C.Reg a })
    when plain dst ->
    fun () -> regs.%(dst) <- regs.%(a) * k
  | C.Un { dst; op; a = C.Reg a } when plain dst -> (
    match op with
    | Neg -> fun () -> regs.%(dst) <- - regs.%(a)
    | Not -> fun () -> regs.%(dst) <- lnot regs.%(a)
    | Abs -> fun () -> regs.%(dst) <- abs regs.%(a))
  | C.Mov { dst; src = C.Reg s } when plain dst ->
    fun () -> regs.%(dst) <- regs.%(s)
  | C.Mov { dst; src = C.Imm k } when plain dst -> fun () -> regs.%(dst) <- k
  | C.Select { dst; cond = C.Reg c; if_true = C.Reg t; if_false = C.Reg f }
    when plain dst ->
    fun () -> regs.%(dst) <- (if regs.%(c) <> 0 then regs.%(t) else regs.%(f))
  | C.Load { dst; arr; aname; index = C.Reg r } when plain dst && arr >= 0 ->
    let a = data.(arr) in
    let n = Array.length a in
    fun () ->
      let i = regs.%(r) in
      if i < 0 || i >= n then out_of_bounds aname i n;
      regs.%(dst) <- a.%(i)
  | C.Store { arr; aname; const = false; index = C.Reg r; value } when arr >= 0
    -> (
    let a = data.(arr) in
    let n = Array.length a in
    match value with
    | C.Reg v ->
      fun () ->
        let i = regs.%(r) in
        if i < 0 || i >= n then out_of_bounds aname i n;
        a.%(i) <- regs.%(v)
    | C.Imm k ->
      fun () ->
        let i = regs.%(r) in
        if i < 0 || i >= n then out_of_bounds aname i n;
        a.%(i) <- k
    | C.Checked _ -> generic regs defined data p ins)
  | ins -> generic regs defined data p ins

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

(* --- the block loop ------------------------------------------------------ *)

(* Runs a flattened program with semantics byte-identical to [Interp.run].
   The oracle ticks once per executed unit (a block, then each of its
   instructions): the [max_steps] check, [poll] when the step count is a
   multiple of 1024, the fuel check, then the count.  Here [stop] is the
   first step count at which a tick would do anything but count: the
   [max_steps] limit, the step at which fuel runs out, or the next poll
   point.  A block whose [len + 1] units all fall before [stop] runs its
   body without ticks and adds [len + 1] at once — every tick it skips
   would only have counted, so the steps, the poll calls and the point of
   any exhaustion stay exactly the oracle's.  Any other block ticks unit
   by unit as the oracle does, then [stop] moves to the next such step. *)
let exec ?(fuel = 400_000_000) ?max_steps ?poll ?(inputs = []) (p : C.t) =
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
  let bodies =
    Array.map
      (fun (b : C.block) -> Array.map (instr regs defined data p) b.body)
      p.blocks
  in
  let terms =
    Array.map (fun (b : C.block) -> terminator regs defined counts ret b.term) p.blocks
  in
  let limit = match max_steps with Some l -> l | None -> max_int in
  let steps = ref 0 in
  let tick () =
    let s = !steps in
    if s >= limit then raise (Interp.Fuel_exhausted { steps = s });
    (match poll with Some check when s land 1023 = 0 -> check () | Some _ | None -> ());
    (* the oracle's budget is [fuel - steps] *)
    if s >= fuel then error "fuel exhausted (infinite loop?)";
    steps := s + 1
  in
  let horizon s =
    let h = min limit fuel in
    match poll with Some _ -> min h ((s + 1023) land lnot 1023) | None -> h
  in
  let stop = ref (horizon 0) in
  let cur = ref p.entry in
  while !cur >= 0 do
    let i = !cur in
    let body = Array.unsafe_get bodies i in
    let len = Array.length body in
    let s = !steps in
    if s + len < !stop then begin
      steps := s + len + 1;
      for k = 0 to len - 1 do
        (Array.unsafe_get body k) ()
      done
    end
    else begin
      tick ();
      for k = 0 to len - 1 do
        tick ();
        (Array.unsafe_get body k) ()
      done;
      stop := horizon !steps
    end;
    cur := (Array.unsafe_get terms i) ()
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

let run ?fuel ?max_steps ?poll ?inputs cdfg =
  Hypar_obs.Span.with_ ~cat:"profile" "profile.run" @@ fun () ->
  exec ?fuel ?max_steps ?poll ?inputs (Compile.compile cdfg)
