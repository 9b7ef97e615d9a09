module Ir = Hypar_ir
module B = Ir.Builder

type kind =
  | Empty_program
  | Duplicate_label of string
  | Unknown_label of string
  | Label_past_end of string
  | Fallthrough_off_end
  | Stack_underflow of string
  | Stack_overflow of int
  | Stack_mismatch of { label : string; expected : int; got : int }
  | Unknown_array of string
  | Unknown_local of string
  | Const_store of string

type diag = { dpos : Prog.pos; dkind : kind }

exception Reject of diag

let stack_limit = 1024
let reject pos kind = raise (Reject { dpos = pos; dkind = kind })

let message = function
  | Empty_program -> "empty program: no instructions"
  | Duplicate_label l -> Printf.sprintf "duplicate label %S" l
  | Unknown_label l -> Printf.sprintf "jump to unknown label %S" l
  | Label_past_end l -> Printf.sprintf "label %S points past the last instruction" l
  | Fallthrough_off_end -> "control falls through past the last instruction"
  | Stack_underflow m -> Printf.sprintf "%s: operand stack underflow" m
  | Stack_overflow limit -> Printf.sprintf "operand stack exceeds %d values" limit
  | Stack_mismatch { label; expected; got } ->
    Printf.sprintf "stack depth mismatch at %S: %d here, %d on another path" label
      got expected
  | Unknown_array a -> Printf.sprintf "undeclared array %S" a
  | Unknown_local l -> Printf.sprintf "undeclared local %S" l
  | Const_store a -> Printf.sprintf "astore to const array %S" a

(* --- the stream, labels and leaders ------------------------------------- *)

type stream = {
  insns : (Prog.pos * Insn.t) array;
  (* user label -> instruction index (may equal [Array.length insns] until
     checked) *)
  label_index : (string, int) Hashtbl.t;
  (* leader index -> canonical block label *)
  canon : (int, string) Hashtbl.t;
  leaders : int array;  (* sorted ascending, first is 0 *)
  (* [Some l] when some branch targets instruction 0: the CFG then gets a
     synthetic entry block labelled [l] holding the local zero-init, so a
     back edge to the top of the program cannot re-execute it *)
  entry : string option;
}

let scan (prog : Prog.t) =
  let insns = ref [] and count = ref 0 in
  let label_index = Hashtbl.create 16 in
  let label_pos = Hashtbl.create 16 in
  let label_order = ref [] in
  List.iter
    (fun (pos, item) ->
      match item with
      | Prog.Insn i ->
        insns := (pos, i) :: !insns;
        incr count
      | Prog.Label l ->
        if Hashtbl.mem label_index l then reject pos (Duplicate_label l);
        Hashtbl.replace label_index l !count;
        Hashtbl.replace label_pos l pos;
        label_order := l :: !label_order)
    prog.code;
  let insns = Array.of_list (List.rev !insns) in
  let n = Array.length insns in
  if n = 0 then reject { Prog.line = 1; col = 1 } Empty_program;
  let labels_in_order = List.rev !label_order in
  List.iter
    (fun l ->
      if Hashtbl.find label_index l >= n then
        reject (Hashtbl.find label_pos l) (Label_past_end l))
    labels_in_order;
  let last_pos, last = insns.(n - 1) in
  if Insn.falls_through last then reject last_pos Fallthrough_off_end;
  (* resolve targets; mark leaders *)
  let is_leader = Array.make n false in
  is_leader.(0) <- true;
  let entry_is_target = ref false in
  Array.iteri
    (fun i (pos, insn) ->
      (match Insn.branch_target insn with
      | Some l -> (
        match Hashtbl.find_opt label_index l with
        | None -> reject pos (Unknown_label l)
        | Some idx ->
          is_leader.(idx) <- true;
          if idx = 0 then entry_is_target := true)
      | None -> ());
      if Insn.ends_block insn && i + 1 < n then is_leader.(i + 1) <- true)
    insns;
  List.iter (fun l -> is_leader.(Hashtbl.find label_index l) <- true) labels_in_order;
  (* canonical labels: first user label at the leader, else a fresh bb<i> *)
  let user_names = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace user_names l ()) labels_in_order;
  let canon = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let idx = Hashtbl.find label_index l in
      if not (Hashtbl.mem canon idx) then Hashtbl.replace canon idx l)
    labels_in_order;
  let leaders = ref [] in
  for i = n - 1 downto 0 do
    if is_leader.(i) then leaders := i :: !leaders
  done;
  let leaders = Array.of_list !leaders in
  let rec fresh_name base suffix =
    let cand = if suffix < 0 then base else Printf.sprintf "%s_%d" base suffix in
    if Hashtbl.mem user_names cand then fresh_name base (suffix + 1) else cand
  in
  Array.iter
    (fun li ->
      if not (Hashtbl.mem canon li) then begin
        let name = fresh_name (Printf.sprintf "bb%d" li) (-1) in
        Hashtbl.replace user_names name ();
        Hashtbl.replace canon li name
      end)
    leaders;
  let entry =
    if not !entry_is_target then None
    else begin
      let name = fresh_name "entry" (-1) in
      Hashtbl.replace user_names name ();
      Some name
    end
  in
  { insns; label_index; canon; leaders; entry }

(* --- lowering ------------------------------------------------------------ *)

type env = {
  stream : stream;
  arrays : (string, Ir.Cdfg.array_decl) Hashtbl.t;
  locals : (string, Ir.Instr.var) Hashtbl.t;
  local_order : Ir.Instr.var list;
  regs : Ir.Builder.t;  (* numbers the registers; blocks are made per leader *)
  stk_vars : (int, Ir.Instr.var) Hashtbl.t;  (* stack position -> register *)
  stk_ids : (int, int) Hashtbl.t;  (* vid -> stack position *)
  stk_widths : (int, int) Hashtbl.t;  (* stack position -> register width *)
  stk_observed : (int, int) Hashtbl.t;  (* widest operand spilled per position *)
}

let stk_var env j =
  match Hashtbl.find_opt env.stk_vars j with
  | Some v -> v
  | None ->
    let width = Option.value (Hashtbl.find_opt env.stk_widths j) ~default:32 in
    let v = B.fresh_var ~width env.regs (Printf.sprintf "stk_%d" j) in
    Hashtbl.replace env.stk_vars j v;
    Hashtbl.replace env.stk_ids v.Ir.Instr.vid j;
    v

let canon_of_label env l =
  Hashtbl.find env.stream.canon (Hashtbl.find env.stream.label_index l)

let find_array env pos a =
  match Hashtbl.find_opt env.arrays a with
  | Some d -> d
  | None -> reject pos (Unknown_array a)

let find_local env pos l =
  match Hashtbl.find_opt env.locals l with
  | Some v -> v
  | None -> reject pos (Unknown_local l)

let with_dst dst = function
  | Ir.Instr.Bin b -> Ir.Instr.Bin { b with dst }
  | Ir.Instr.Mul m -> Ir.Instr.Mul { m with dst }
  | Ir.Instr.Div d -> Ir.Instr.Div { d with dst }
  | Ir.Instr.Rem r -> Ir.Instr.Rem { r with dst }
  | Ir.Instr.Un u -> Ir.Instr.Un { u with dst }
  | Ir.Instr.Mov m -> Ir.Instr.Mov { m with dst }
  | Ir.Instr.Select s -> Ir.Instr.Select { s with dst }
  | Ir.Instr.Load l -> Ir.Instr.Load { l with dst }
  | Ir.Instr.Store _ as s -> s

(* One lowered block: its [Block.t] plus the (successor label, stack depth,
   source position) of every out edge, for depth propagation.  [strict] is
   false only for unreachable blocks, whose entry depth is a guess. *)
let lower_block env ~block_id ~entry_depth ~strict =
  let stream = env.stream in
  let lo = stream.leaders.(block_id) in
  let hi =
    if block_id + 1 < Array.length stream.leaders then stream.leaders.(block_id + 1)
    else Array.length stream.insns
  in
  let label = Hashtbl.find stream.canon lo in
  let next_label () = Hashtbl.find stream.canon hi in
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  (* the entry block zero-initialises every declared local — unless some
     branch targets instruction 0, in which case the init lives in the
     synthetic entry block [stream.entry] built by [cdfg_exn] instead *)
  if lo = 0 && stream.entry = None then
    List.iter
      (fun v -> emit (Ir.Instr.Mov { dst = v; src = Ir.Instr.Imm 0 }))
      env.local_order;
  (* head of [stack] is the top; stk_<j> counts from the bottom *)
  let stack = ref [] and depth = ref 0 in
  for j = 0 to entry_depth - 1 do
    stack := Ir.Instr.Var (stk_var env j) :: !stack
  done;
  depth := entry_depth;
  let push pos op =
    if !depth >= stack_limit then reject pos (Stack_overflow stack_limit);
    stack := op :: !stack;
    incr depth
  in
  let pop pos insn =
    match !stack with
    | [] ->
      (* an unreachable block is lowered under an assumed empty entry
         stack; pad its underflow with fresh (undefined) registers rather
         than rejecting code that can never execute *)
      if strict then reject pos (Stack_underflow (Insn.mnemonic insn))
      else Ir.Instr.Var (B.fresh_var ~width:32 env.regs "u")
    | op :: rest ->
      stack := rest;
      decr depth;
      op
  in
  (* Spill the remaining stack to the canonical stk_<j> registers: a
     parallel move — operands that are themselves stk registers are read
     into temporaries first so swapped positions do not clobber each
     other. *)
  let spill () =
    let ops = Array.of_list (List.rev !stack) in
    let moves = ref [] in
    Array.iteri
      (fun j op ->
        let w = Ir.Instr.width_of_operand op in
        let seen = Option.value (Hashtbl.find_opt env.stk_observed j) ~default:0 in
        if w > seen then Hashtbl.replace env.stk_observed j w;
        let target = stk_var env j in
        let same =
          match op with
          | Ir.Instr.Var v -> v.Ir.Instr.vid = target.Ir.Instr.vid
          | Ir.Instr.Imm _ -> false
        in
        if not same then moves := (j, target, op) :: !moves)
      ops;
    let staged =
      List.rev_map
        (fun (j, target, op) ->
          match op with
          | Ir.Instr.Var v when Hashtbl.mem env.stk_ids v.Ir.Instr.vid ->
            let t = B.fresh_var ~width:v.Ir.Instr.vwidth env.regs "stk_t" in
            emit (Ir.Instr.Mov { dst = t; src = op });
            (j, target, Ir.Instr.Var t)
          | _ -> (j, target, op))
        !moves
    in
    List.iter (fun (_, target, op) -> emit (Ir.Instr.Mov { dst = target; src = op }))
      staged
  in
  (* a branch condition must survive the spill rewriting the stk registers *)
  let protect_cond cond =
    match cond with
    | Ir.Instr.Var v when Hashtbl.mem env.stk_ids v.Ir.Instr.vid ->
      let t = B.fresh_var ~width:v.Ir.Instr.vwidth env.regs "t_cond" in
      emit (Ir.Instr.Mov { dst = t; src = cond });
      Ir.Instr.Var t
    | _ -> cond
  in
  let term = ref None and succs = ref [] in
  let finish t out = term := Some t; succs := out in
  for i = lo to hi - 1 do
    let pos, insn = stream.insns.(i) in
    match insn with
    | Insn.Push n -> push pos (Ir.Instr.Imm n)
    | Insn.Load slot ->
      let v = find_local env pos slot in
      let t = B.fresh_var ~width:v.Ir.Instr.vwidth env.regs slot in
      emit (Ir.Instr.Mov { dst = t; src = Ir.Instr.Var v });
      push pos (Ir.Instr.Var t)
    | Insn.Store slot ->
      let v = find_local env pos slot in
      let x = pop pos insn in
      (* store-back coalescing: a compute-then-store pair writes the slot
         register directly (what the Mini-C frontend emits), instead of
         computing into a temporary and copying — the one decompilation
         residue global copy propagation cannot erase when the slot is
         loop-carried.  Safe only when the temporary was defined by the
         instruction just emitted and survives nowhere else (not dup'ed
         onto the stack). *)
      let coalesced =
        match (x, !instrs) with
        | Ir.Instr.Var t, last :: rest
          when (match Ir.Instr.def last with
               | Some d -> d.Ir.Instr.vid = t.Ir.Instr.vid
               | None -> false)
               && (not (Hashtbl.mem env.stk_ids t.Ir.Instr.vid))
               && not
                    (List.exists
                       (function
                         | Ir.Instr.Var u -> u.Ir.Instr.vid = t.Ir.Instr.vid
                         | Ir.Instr.Imm _ -> false)
                       !stack) ->
          instrs := with_dst v last :: rest;
          true
        | _ -> false
      in
      if not coalesced then emit (Ir.Instr.Mov { dst = v; src = x })
    | Insn.Aload arr ->
      let d = find_array env pos arr in
      let index = pop pos insn in
      let t = B.fresh_var ~width:d.Ir.Cdfg.elem_width env.regs "t_load" in
      emit (Ir.Instr.Load { dst = t; arr; index });
      push pos (Ir.Instr.Var t)
    | Insn.Astore arr ->
      let d = find_array env pos arr in
      if d.Ir.Cdfg.is_const then reject pos (Const_store arr);
      let value = pop pos insn in
      let index = pop pos insn in
      emit (Ir.Instr.Store { arr; index; value })
    | Insn.Alu op ->
      let b = pop pos insn in
      let a = pop pos insn in
      let t = B.fresh_var ~width:(Ir.Instr.alu_width op a b) env.regs "t" in
      emit (Ir.Instr.Bin { dst = t; op; a; b });
      push pos (Ir.Instr.Var t)
    | Insn.Mul ->
      let b = pop pos insn in
      let a = pop pos insn in
      let t = B.fresh_var ~width:(Ir.Instr.mul_width a b) env.regs "t_mul" in
      emit (Ir.Instr.Mul { dst = t; a; b });
      push pos (Ir.Instr.Var t)
    | Insn.Div ->
      let b = pop pos insn in
      let a = pop pos insn in
      let t = B.fresh_var ~width:(Ir.Instr.div_width a b) env.regs "t_div" in
      emit (Ir.Instr.Div { dst = t; a; b });
      push pos (Ir.Instr.Var t)
    | Insn.Rem ->
      let b = pop pos insn in
      let a = pop pos insn in
      let t = B.fresh_var ~width:(Ir.Instr.div_width a b) env.regs "t_rem" in
      emit (Ir.Instr.Rem { dst = t; a; b });
      push pos (Ir.Instr.Var t)
    | Insn.Un op ->
      let a = pop pos insn in
      let width = Ir.Instr.un_width op a in
      let t = B.fresh_var ~width env.regs ("t_" ^ Ir.Types.string_of_un_op op) in
      emit (Ir.Instr.Un { dst = t; op; a });
      push pos (Ir.Instr.Var t)
    | Insn.Select ->
      let if_false = pop pos insn in
      let if_true = pop pos insn in
      let cond = pop pos insn in
      let width = Ir.Instr.select_width if_true if_false in
      let t = B.fresh_var ~width env.regs "t_sel" in
      emit (Ir.Instr.Select { dst = t; cond; if_true; if_false });
      push pos (Ir.Instr.Var t)
    | Insn.Dup ->
      let x = pop pos insn in
      push pos x;
      push pos x
    | Insn.Pop -> ignore (pop pos insn)
    | Insn.Swap ->
      let b = pop pos insn in
      let a = pop pos insn in
      push pos b;
      push pos a
    | Insn.Jmp l ->
      let target = canon_of_label env l in
      spill ();
      finish (Ir.Block.Jump target) [ (target, !depth, pos) ]
    | Insn.Brt l | Insn.Brf l ->
      let cond = protect_cond (pop pos insn) in
      let target = canon_of_label env l in
      let fall = next_label () in
      spill ();
      let if_true, if_false =
        match insn with Insn.Brt _ -> (target, fall) | _ -> (fall, target)
      in
      finish
        (Ir.Block.Branch { cond; if_true; if_false })
        [ (target, !depth, pos); (fall, !depth, pos) ]
    | Insn.Ret -> finish (Ir.Block.Return None) []
    | Insn.Retv ->
      let v = pop pos insn in
      finish (Ir.Block.Return (Some v)) []
  done;
  let term, succs =
    match !term with
    | Some t -> (t, !succs)
    | None ->
      (* the next instruction is a leader: synthesised fall-through *)
      let pos, _ = stream.insns.(hi - 1) in
      let fall = next_label () in
      spill ();
      (Ir.Block.Jump fall, [ (fall, !depth, pos) ])
  in
  (Ir.Block.make ~label ~instrs:(List.rev !instrs) ~term, succs)

let cdfg_exn (prog : Prog.t) =
  let stream = scan prog in
  let arrays = Hashtbl.create 8 in
  List.iter
    (fun (a : Prog.array_decl) ->
      Hashtbl.replace arrays a.aname
        {
          Ir.Cdfg.aname = a.aname;
          size = a.size;
          init = a.init;
          is_const = a.is_const;
          elem_width = a.elem_width;
        })
    prog.arrays;
  (* [stk_widths] sizes the stk_<j> registers; it starts empty (32-bit
     default) and grows to the widest operand any edge actually spills
     into each position, found by fixpoint over the (deterministic)
     lowering below *)
  let stk_widths = Hashtbl.create 8 in
  let build () =
    let env =
      {
        stream;
        arrays;
        locals = Hashtbl.create 16;
        local_order = [];
        regs = Ir.Builder.create ();
        stk_vars = Hashtbl.create 8;
        stk_ids = Hashtbl.create 8;
        stk_widths;
        stk_observed = Hashtbl.create 8;
      }
    in
    let local_order =
      List.map
        (fun (l : Prog.local_decl) ->
          let v = B.fresh_var ~width:l.lwidth env.regs l.lname in
          Hashtbl.replace env.locals l.lname v;
          v)
        prog.locals
    in
    let env = { env with local_order } in
    let nblocks = Array.length stream.leaders in
    let blocks = Array.make nblocks None in
    let depth_in = Array.make nblocks None in
    let block_of_canon = Hashtbl.create 16 in
    Array.iteri
      (fun k li -> Hashtbl.replace block_of_canon (Hashtbl.find stream.canon li) k)
      stream.leaders;
    let queue = Queue.create () in
    let schedule ~strict (label, depth, pos) =
      let k = Hashtbl.find block_of_canon label in
      match depth_in.(k) with
      | None ->
        depth_in.(k) <- Some depth;
        Queue.add (k, strict) queue
      | Some expected ->
        if strict && expected <> depth then
          reject pos (Stack_mismatch { label; expected; got = depth })
    in
    let drain () =
      while not (Queue.is_empty queue) do
        let k, strict = Queue.pop queue in
        if blocks.(k) = None then begin
          let entry_depth = Option.value depth_in.(k) ~default:0 in
          let block, succs = lower_block env ~block_id:k ~entry_depth ~strict in
          blocks.(k) <- Some block;
          List.iter (schedule ~strict) succs
        end
      done
    in
    schedule ~strict:true (Hashtbl.find stream.canon 0, 0, { Prog.line = 1; col = 1 });
    drain ();
    (* unreachable code is lowered too (with an empty entry stack) so the
       CDFG is complete; Passes.simplify_cfg deletes it when optimising *)
    for k = 0 to nblocks - 1 do
      if blocks.(k) = None then begin
        if depth_in.(k) = None then depth_in.(k) <- Some 0;
        Queue.add (k, false) queue;
        drain ()
      end
    done;
    (env, Array.to_list blocks |> List.map Option.get)
  in
  (* rebuild until the stk widths stop growing: widths are monotone and
     bounded by 64, so this terminates (one extra pass in practice, only
     when a >32-bit value crosses a block edge) *)
  let rec converge () =
    let env, blocks = build () in
    let grew = ref false in
    Hashtbl.iter
      (fun j w ->
        let cur = Option.value (Hashtbl.find_opt stk_widths j) ~default:32 in
        if w > cur then begin
          Hashtbl.replace stk_widths j w;
          grew := true
        end)
      env.stk_observed;
    if !grew then converge () else (env, blocks)
  in
  let env, blocks = converge () in
  (* if instruction 0 is a branch target, the local zero-init goes in a
     synthetic entry block so the back edge cannot re-execute it *)
  let blocks =
    match stream.entry with
    | None -> blocks
    | Some label ->
      let instrs =
        List.map
          (fun v -> Ir.Instr.Mov { dst = v; src = Ir.Instr.Imm 0 })
          env.local_order
      in
      Ir.Block.make ~label ~instrs ~term:(Ir.Block.Jump (Hashtbl.find stream.canon 0))
      :: blocks
  in
  let cfg = Ir.Cfg.of_blocks blocks in
  Ir.Cdfg.make ~name:prog.name
    ~arrays:(List.map (fun (a : Prog.array_decl) -> Hashtbl.find arrays a.aname) prog.arrays)
    cfg

let cdfg prog = try Ok (cdfg_exn prog) with Reject d -> Error d
