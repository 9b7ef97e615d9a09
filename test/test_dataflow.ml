(* Unit tests for the generic dataflow solver and its bundled analyses. *)

module Ir = Hypar_ir
module D = Ir.Dataflow

let mk name id = { Ir.Instr.vname = name; vid = id; vwidth = 16 }

module Pos_set = Set.Make (struct
  type t = D.pos

  let compare = compare
end)

(* Reaching definitions (forward, may): register id -> the definition
   sites that may reach this point.  No pass needs it; it exercises the
   solver on a may-analysis over a plain map. *)
module Reaching = struct
  type t = Pos_set.t D.Int_map.t

  let name = "reaching"
  let direction = D.Forward
  let init = D.Int_map.empty
  let boundary = D.Int_map.empty
  let join = D.Int_map.union (fun _ a b -> Some (Pos_set.union a b))
  let equal = D.Int_map.equal Pos_set.equal

  let transfer p instr env =
    match Ir.Instr.def instr with
    | Some d -> D.Int_map.add d.Ir.Instr.vid (Pos_set.singleton p) env
    | None -> env

  let transfer_term _ _ env = env
  let transfer_block = None
  let edge = None
  let widen = None

  (* definition sites of a register id, sorted; [] when none reach *)
  let sites vid env =
    match D.Int_map.find_opt vid env with
    | Some s -> Pos_set.elements s
    | None -> []
end

(* entry: x = 1; y = 2; c = x < y; branch c -> a / b
   a: z = x + y; jump exit
   b: z = x + y; x = 9; jump exit
   exit: w = x + y; return z *)
let diamond () =
  let x = mk "x" 0 and y = mk "y" 1 and z = mk "z" 2 in
  let c = mk "c" 3 and w = mk "w" 4 in
  let entry =
    Ir.Block.make ~label:"entry"
      ~instrs:
        [
          Ir.Instr.Mov { dst = x; src = Imm 1 };
          Ir.Instr.Mov { dst = y; src = Imm 2 };
          Ir.Instr.Bin { dst = c; op = Ir.Types.Lt; a = Var x; b = Var y };
        ]
      ~term:(Ir.Block.Branch { cond = Var c; if_true = "a"; if_false = "b" })
  in
  let a =
    Ir.Block.make ~label:"a"
      ~instrs:
        [ Ir.Instr.Bin { dst = z; op = Ir.Types.Add; a = Var x; b = Var y } ]
      ~term:(Ir.Block.Jump "exit")
  in
  let b =
    Ir.Block.make ~label:"b"
      ~instrs:
        [
          Ir.Instr.Bin { dst = z; op = Ir.Types.Add; a = Var x; b = Var y };
          Ir.Instr.Mov { dst = x; src = Imm 9 };
        ]
      ~term:(Ir.Block.Jump "exit")
  in
  let exit_b =
    Ir.Block.make ~label:"exit"
      ~instrs:
        [ Ir.Instr.Bin { dst = w; op = Ir.Types.Add; a = Var x; b = Var y } ]
      ~term:(Ir.Block.Return (Some (Var z)))
  in
  Ir.Cfg.of_blocks [ entry; a; b; exit_b ]

let test_reaching () =
  let cfg = diamond () in
  let sol = D.solve (module Reaching) cfg in
  (* x at exit entry: the entry def and the redefinition in b both reach *)
  let sites = Reaching.sites 0 sol.D.at_entry.(3) in
  Alcotest.(check (list (pair int int)))
    "x defs reaching exit"
    [ (0, 0); (2, 1) ]
    (List.map (fun (p : D.pos) -> (p.D.block, p.D.index)) sites);
  (* z at exit: one def per arm *)
  let z_sites = Reaching.sites 2 sol.D.at_entry.(3) in
  Alcotest.(check int) "two z defs reach exit" 2 (List.length z_sites);
  (* inside the entry block nothing reaches yet *)
  Alcotest.(check (list (pair int int)))
    "nothing reaches the entry" []
    (List.map
       (fun (p : D.pos) -> (p.D.block, p.D.index))
       (Reaching.sites 0 sol.D.at_entry.(0)))

let test_avail () =
  let cfg = diamond () in
  let tbl = Ir.Exprs.build cfg in
  let sol = D.Avail.solve tbl cfg in
  let e = (Ir.Exprs.step tbl 1 0).Ir.Exprs.expr in
  if e < 0 then Alcotest.fail "x + y has an expression id";
  (* x + y is computed on both arms, but b then redefines x — so it is
     not available at the join *)
  Alcotest.(check bool)
    "x + y available after a" true
    (D.Avail.find tbl e sol.D.at_exit.(1) <> None);
  Alcotest.(check bool)
    "x + y killed by b's redefinition" true
    (D.Avail.find tbl e sol.D.at_exit.(2) = None);
  Alcotest.(check bool)
    "x + y not available at the join" true
    (D.Avail.find tbl e sol.D.at_entry.(3) = None)

(* The dense-id lattice and both CSE passes against the string-keyed
   reference (Cse_reference) on generated programs, safe and unsafe
   grammars, as the frontend lowers them without optimisation. *)

let reference_facts = function
  | Cse_reference.Avail.All -> None
  | Cse_reference.Avail.Known m ->
    Some
      (List.map
         (fun (k, (v : Ir.Instr.var)) -> (k, v.Ir.Instr.vid))
         (Cse_reference.String_map.bindings m))

let table_facts tbl = function
  | D.Avail.All -> None
  | D.Avail.Known s ->
    Some
      (List.sort compare
         (List.map
            (fun (k, (v : Ir.Instr.var)) ->
              (Cse_reference.string_of_key k, v.Ir.Instr.vid))
            (Ir.Exprs.facts tbl s)))

let same_blocks c1 c2 =
  Ir.Cfg.blocks (Ir.Cdfg.cfg c1) = Ir.Cfg.blocks (Ir.Cdfg.cfg c2)

let cse_matches_reference raw =
  let cfg = Ir.Cdfg.cfg raw in
  let tbl = Ir.Exprs.build cfg in
  let sol = D.Avail.solve tbl cfg in
  let ref_sol = D.solve (module Cse_reference.Avail) cfg in
  let agree side ref_side =
    Array.for_all2
      (fun a r -> table_facts tbl a = reference_facts r)
      side ref_side
  in
  (agree sol.D.at_entry ref_sol.D.at_entry
  || QCheck.Test.fail_reportf "block-entry facts differ")
  && (agree sol.D.at_exit ref_sol.D.at_exit
     || QCheck.Test.fail_reportf "block-exit facts differ")
  && (same_blocks (Ir.Passes.global_cse raw) (Cse_reference.global_cse raw)
     || QCheck.Test.fail_reportf "global_cse rewrites differ")
  && (same_blocks
        (Ir.Passes.common_subexpressions raw)
        (Cse_reference.common_subexpressions raw)
     || QCheck.Test.fail_reportf "common_subexpressions rewrites differ")

let prop_cse_reference ~unsafe =
  let config = { Hypar_fuzzgen.Gen.default_config with unsafe } in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "avail/CSE match the string-keyed reference (%s)"
         (if unsafe then "unsafe" else "safe"))
    ~count:60
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      match
        Hypar_minic.Driver.compile ~name:"cse" ~simplify:false
          (Hypar_fuzzgen.Gen.source ~config seed)
      with
      | Ok raw -> cse_matches_reference raw
      | Error e ->
        QCheck.Test.fail_reportf "generated program does not compile: %s"
          (Hypar_ir.Frontend.string_of_error e))

let test_assigned () =
  let cfg = diamond () in
  let sol = D.solve (module D.Assigned) cfg in
  Alcotest.(check bool) "x assigned into exit" true
    (D.Assigned.mem 0 sol.D.at_entry.(3));
  Alcotest.(check bool) "z assigned into exit (both arms)" true
    (D.Assigned.mem 2 sol.D.at_entry.(3));
  Alcotest.(check bool) "nothing assigned into entry" false
    (D.Assigned.mem 0 sol.D.at_entry.(0));
  Alcotest.(check bool) "w not assigned into exit" false
    (D.Assigned.mem 4 sol.D.at_entry.(3))

(* entry: x = 7; branch (x < 10) -> hot / cold
   hot: y = x + 1; jump exit      (taken: the condition is constant true)
   cold: y = 0; jump exit         (statically dead)
   exit: return y *)
let constant_branch () =
  let x = mk "x" 0 and y = mk "y" 1 and c = mk "c" 2 in
  let entry =
    Ir.Block.make ~label:"entry"
      ~instrs:
        [
          Ir.Instr.Mov { dst = x; src = Imm 7 };
          Ir.Instr.Bin { dst = c; op = Ir.Types.Lt; a = Var x; b = Imm 10 };
        ]
      ~term:(Ir.Block.Branch { cond = Var c; if_true = "hot"; if_false = "cold" })
  in
  let hot =
    Ir.Block.make ~label:"hot"
      ~instrs:
        [ Ir.Instr.Bin { dst = y; op = Ir.Types.Add; a = Var x; b = Imm 1 } ]
      ~term:(Ir.Block.Jump "exit")
  in
  let cold =
    Ir.Block.make ~label:"cold"
      ~instrs:[ Ir.Instr.Mov { dst = y; src = Imm 0 } ]
      ~term:(Ir.Block.Jump "exit")
  in
  let exit_b =
    Ir.Block.make ~label:"exit" ~instrs:[]
      ~term:(Ir.Block.Return (Some (Var y)))
  in
  Ir.Cfg.of_blocks [ entry; hot; cold; exit_b ]

let test_consts_edge_pruning () =
  let cfg = constant_branch () in
  let sol = D.Consts.solve cfg in
  Alcotest.(check (option int)) "x constant in hot" (Some 7)
    (D.Consts.find 0 sol.D.at_entry.(1));
  (* the not-taken edge is pruned: cold's input stays Unreached *)
  Alcotest.(check bool) "cold is unreached" true
    (sol.D.at_entry.(2) = D.Consts.Unreached);
  (* so the join at exit keeps the hot arm's facts: y = 8 *)
  Alcotest.(check (option int)) "y constant at exit despite the join" (Some 8)
    (D.Consts.find 1 sol.D.at_entry.(3))

let test_copies () =
  let x = mk "x" 0 and y = mk "y" 1 and z = mk "z" 2 in
  (* entry: y = x; jump next.  next: z = y + 1; y = 5; jump last.
     last: return y *)
  let entry =
    Ir.Block.make ~label:"entry"
      ~instrs:[ Ir.Instr.Mov { dst = y; src = Var x } ]
      ~term:(Ir.Block.Jump "next")
  in
  let next =
    Ir.Block.make ~label:"next"
      ~instrs:
        [
          Ir.Instr.Bin { dst = z; op = Ir.Types.Add; a = Var y; b = Imm 1 };
          Ir.Instr.Mov { dst = y; src = Imm 5 };
        ]
      ~term:(Ir.Block.Jump "last")
  in
  let last =
    Ir.Block.make ~label:"last" ~instrs:[]
      ~term:(Ir.Block.Return (Some (Var y)))
  in
  let cfg = Ir.Cfg.of_blocks [ entry; next; last ] in
  let sol = D.Copies.solve cfg in
  Alcotest.(check bool) "y = x crosses the block boundary" true
    (D.Copies.find 1 sol.D.at_entry.(1) = Some (Ir.Instr.Var x));
  Alcotest.(check bool) "redefinition replaces the copy" true
    (D.Copies.find 1 sol.D.at_entry.(2) = Some (Ir.Instr.Imm 5))

(* entry: x = 0; y = 1; jump loop
   loop: x = y; y = y + 1; branch y -> loop / exit
   exit: return x
   The copy x = y dies in its own block, and with it the x = 0 that
   reached the loop: no copy of x reaches the exit. *)
let test_copies_ended_in_block () =
  let x = mk "x" 0 and y = mk "y" 1 in
  let entry =
    Ir.Block.make ~label:"entry"
      ~instrs:[ Ir.Instr.Mov { dst = x; src = Imm 0 }; Ir.Instr.Mov { dst = y; src = Imm 1 } ]
      ~term:(Ir.Block.Jump "loop")
  in
  let loop =
    Ir.Block.make ~label:"loop"
      ~instrs:
        [
          Ir.Instr.Mov { dst = x; src = Var y };
          Ir.Instr.Bin { dst = y; op = Ir.Types.Add; a = Var y; b = Imm 1 };
        ]
      ~term:(Ir.Block.Branch { cond = Var y; if_true = "loop"; if_false = "exit" })
  in
  let exit_b =
    Ir.Block.make ~label:"exit" ~instrs:[] ~term:(Ir.Block.Return (Some (Var x)))
  in
  let cfg = Ir.Cfg.of_blocks [ entry; loop; exit_b ] in
  let sol = D.Copies.solve cfg in
  Alcotest.(check bool) "x = 0 reaches the loop from the entry only" true
    (D.Copies.find 0 sol.D.at_entry.(1) = None);
  Alcotest.(check bool) "no copy of x at the exit" true
    (D.Copies.find 0 sol.D.at_entry.(2) = None);
  Alcotest.(check (option int)) "nor a constant" None
    (D.Consts.find 0 (D.Consts.solve cfg).D.at_entry.(2))

let test_liveness_matches_live () =
  let cfg = diamond () in
  let sol = D.Liveness.solve cfg in
  let live = Ir.Live.analyse cfg in
  let of_list l = List.map (fun (v : Ir.Instr.var) -> v.Ir.Instr.vid) l in
  let of_set s =
    let acc = ref [] in
    D.Liveness.iter (fun vid -> acc := vid :: !acc) s;
    List.rev !acc
  in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "live-in of %d" i)
      (of_list (Ir.Live.live_in live i))
      (of_set sol.D.at_entry.(i));
    Alcotest.(check (list int))
      (Printf.sprintf "live-out of %d" i)
      (of_list (Ir.Live.live_out live i))
      (of_set sol.D.at_exit.(i));
    Alcotest.(check int)
      (Printf.sprintf "live-in count of %d" i)
      (List.length (Ir.Live.live_in live i))
      (Ir.Live.live_in_count live i);
    Alcotest.(check int)
      (Printf.sprintf "published-defs count of %d" i)
      (List.length (Ir.Live.defs_live_out live i))
      (Ir.Live.defs_live_out_count live i)
  done

(* The bitset liveness against the map lattice it replaced
   (Liveness_reference): every block view, as full variable records,
   and both counts.  Generated programs come raw, optimized and
   recovered from their bytecode; hand-built CFGs add self-loops,
   constant conditions and blocks no edge reaches. *)

let live_matches_reference cfg =
  let live = Ir.Live.analyse cfg and oracle = Liveness_reference.analyse cfg in
  let views =
    [
      ("live_in", Ir.Live.live_in live, Liveness_reference.live_in oracle);
      ("live_out", Ir.Live.live_out live, Liveness_reference.live_out oracle);
      ( "defs_live_out",
        Ir.Live.defs_live_out live,
        Liveness_reference.defs_live_out oracle );
      ("use_set", Ir.Live.use_set cfg, Liveness_reference.use_set cfg);
    ]
  in
  let show vars =
    String.concat ", "
      (List.map
         (fun (v : Ir.Instr.var) ->
           Printf.sprintf "%s#%d:%d" v.Ir.Instr.vname v.Ir.Instr.vid
             v.Ir.Instr.vwidth)
         vars)
  in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    List.iter
      (fun (view, got, expected) ->
        if got i <> expected i then
          QCheck.Test.fail_reportf "block %d %s: {%s}, oracle {%s}" i view
            (show (got i)) (show (expected i)))
      views;
    if
      Ir.Live.live_in_count live i
      <> List.length (Liveness_reference.live_in oracle i)
    then QCheck.Test.fail_reportf "block %d: live_in_count differs" i;
    if
      Ir.Live.defs_live_out_count live i
      <> List.length (Liveness_reference.defs_live_out oracle i)
    then QCheck.Test.fail_reportf "block %d: defs_live_out_count differs" i
  done;
  true

let prop_liveness_generated =
  QCheck.Test.make
    ~name:"liveness matches the map oracle (generated: raw, -O, bytecode)"
    ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      match
        Hypar_minic.Driver.compile ~name:"live" ~simplify:false
          (Hypar_fuzzgen.Gen.source seed)
      with
      | Error e ->
        QCheck.Test.fail_reportf "generated program does not compile: %s"
          (Hypar_ir.Frontend.string_of_error e)
      | Ok raw ->
        let recovered =
          Hypar_bytecode.Driver.compile_exn ~name:"live" ~optimize:false
            ~verify_ir:false
            (Hypar_bytecode.Emit.to_string raw)
        in
        List.for_all
          (fun cdfg -> live_matches_reference (Ir.Cdfg.cfg cdfg))
          [ raw; Ir.Passes.optimize ~verify:false raw; recovered ])

(* --- the liveness memo ----------------------------------------------------- *)

(* The optimizer's passes, applied one at a time, twice over. *)
let pass_sequence =
  let p = Ir.Passes.[ const_fold; algebraic_simplify; copy_propagate;
                      common_subexpressions; dead_code_eliminate; simplify_cfg;
                      global_const_propagate; global_copy_propagate; global_cse;
                      loop_invariant_motion ] in
  p @ p

let rebuild cdfg blocks =
  Ir.Cdfg.cfg (Ir.Cdfg.with_blocks cdfg (Array.to_list blocks))

(* [cdfg]'s blocks, each a new record: none is shared with any solve *)
let fresh cdfg =
  rebuild cdfg
    (Array.map (fun (b : Ir.Block.t) -> { b with Ir.Block.label = b.label })
       (Ir.Cfg.blocks (Ir.Cdfg.cfg cdfg)))

(* [cdfg] with a def of a register a word past its universe added to
   its first block: the other blocks shared, the universe grown *)
let grown cdfg =
  let blocks = Array.copy (Ir.Cfg.blocks (Ir.Cdfg.cfg cdfg)) in
  let top = ref 0 in
  Array.iter (Ir.Block.iter_vars (fun v -> top := max !top v.Ir.Instr.vid)) blocks;
  let extra = { Ir.Instr.vname = "grown"; vid = !top + 64; vwidth = 8 } in
  blocks.(0) <-
    { (blocks.(0)) with
      Ir.Block.instrs = blocks.(0).Ir.Block.instrs @ [ Ir.Instr.Mov { dst = extra; src = Imm 0 } ] };
  rebuild cdfg blocks

(* Every CDFG along the pass sequence, solved through the memo this
   domain keeps, against the map oracle: as the pass left it (some
   blocks shared with the solve before), again (all shared: the solve
   is reused), grown (all but one shared, in a larger universe), with
   fresh blocks (none shared), and as the pass left it once more, so the
   next pass's output meets a memo it shares blocks with. *)
let memo_matches_reference raw =
  let ok = ref true in
  ignore
    (List.fold_left
       (fun c pass ->
         let c = pass c in
         let cfg = Ir.Cdfg.cfg c in
         List.iter
           (fun cfg -> ok := !ok && live_matches_reference cfg)
           [ cfg; cfg; grown c; fresh c; cfg ];
         c)
       raw pass_sequence);
  !ok

let prop_liveness_memo (frontend, compile) =
  QCheck.Test.make
    ~name:(Printf.sprintf "liveness memo solves like the oracle along the passes (%s)" frontend)
    ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      (* two domains at once, each with its own memo *)
      let other = Domain.spawn (fun () -> memo_matches_reference (compile (seed + 1))) in
      let here = memo_matches_reference (compile seed) in
      Domain.join other && here)

let raw_minic seed =
  Hypar_minic.Driver.compile_exn ~name:"memo" ~simplify:false (Hypar_fuzzgen.Gen.source seed)

let raw_bytecode seed =
  Hypar_bytecode.Driver.compile_exn ~name:"memo" ~optimize:false ~verify_ir:false
    (Hypar_bytecode.Emit.to_string (raw_minic seed))

(* a random CFG over blocks b0..bn, whose terminators name b0..b(n-1)
   only, and registers 0..7; a register's record is fixed by its id, as
   every frontend keeps it *)
let cfg_gen =
  let open QCheck.Gen in
  let reg vid =
    {
      Ir.Instr.vname = Printf.sprintf "r%d" vid;
      vid;
      vwidth = 8 * (1 + (vid mod 4));
    }
  in
  let var = map reg (int_range 0 7) in
  let operand =
    frequency
      [
        (3, map (fun v -> Ir.Instr.Var v) var);
        (1, map (fun n -> Ir.Instr.Imm n) (int_range 0 9));
      ]
  in
  let instr =
    oneof
      [
        map2 (fun dst src -> Ir.Instr.Mov { dst; src }) var operand;
        map3
          (fun dst a b -> Ir.Instr.Bin { dst; op = Ir.Types.Add; a; b })
          var operand operand;
        map3 (fun arr index value -> Ir.Instr.Store { arr; index; value })
          (return "m") operand operand;
        map2
          (fun dst index -> Ir.Instr.Load { dst; arr = "m"; index })
          var operand;
      ]
  in
  int_range 1 7 >>= fun n ->
  let label = map (Printf.sprintf "b%d") (int_range 0 (n - 1)) in
  let term =
    frequency
      [
        (3, map (fun l -> Ir.Block.Jump l) label);
        ( 3,
          map3
            (fun cond if_true if_false ->
              Ir.Block.Branch { cond; if_true; if_false })
            operand label label );
        (1, map (fun op -> Ir.Block.Return op) (opt operand));
      ]
  in
  let block k =
    map2
      (fun instrs term ->
        Ir.Block.make ~label:(Printf.sprintf "b%d" k) ~instrs ~term)
      (list_size (int_range 0 5) instr)
      term
  in
  (* no terminator names the last block, so none reaches it *)
  map Ir.Cfg.of_blocks (flatten_l (List.init (n + 1) block))

let prop_liveness_hand_built =
  QCheck.Test.make
    ~name:"liveness matches the map oracle (hand-built CFGs, dead blocks)"
    ~count:300
    (QCheck.make
       ~print:(fun cfg ->
         String.concat "\n"
           (Array.to_list
              (Array.map (Format.asprintf "%a" Ir.Block.pp) (Ir.Cfg.blocks cfg))))
       cfg_gen)
    (fun cfg -> live_matches_reference cfg)

let test_instr_facts_and_term_fact () =
  let cfg = constant_branch () in
  let consts = D.Consts.analysis cfg in
  let sol = D.solve consts cfg in
  (* before the compare in the entry block, x = 7 already holds *)
  (match D.instr_facts consts cfg sol 0 with
  | [ (_, before_mov); (_, before_cmp) ] ->
    Alcotest.(check (option int)) "nothing before the first instr" None
      (D.Consts.find 0 before_mov);
    Alcotest.(check (option int)) "x known before the compare" (Some 7)
      (D.Consts.find 0 before_cmp)
  | _ -> Alcotest.fail "entry has two instructions");
  Alcotest.(check (option int)) "condition known at the terminator" (Some 1)
    (D.Consts.find 2 (D.term_fact consts cfg sol 0))

let test_iterations_bounded () =
  (* an acyclic CFG needs exactly one transfer per reachable block *)
  let cfg = diamond () in
  let sol = D.solve (module Reaching) cfg in
  Alcotest.(check int) "one pass over an acyclic graph" 4 sol.D.iterations

let test_unreachable_blocks_keep_init () =
  let x = mk "x" 0 in
  let entry =
    Ir.Block.make ~label:"entry"
      ~instrs:[ Ir.Instr.Mov { dst = x; src = Imm 1 } ]
      ~term:(Ir.Block.Return None)
  in
  let orphan =
    Ir.Block.make ~label:"orphan"
      ~instrs:[ Ir.Instr.Mov { dst = x; src = Imm 2 } ]
      ~term:(Ir.Block.Return None)
  in
  let cfg = Ir.Cfg.of_blocks [ entry; orphan ] in
  let sol = D.solve (module D.Assigned) cfg in
  (* the orphan was never visited: both sides stay at the optimistic top *)
  Alcotest.(check bool) "orphan entry is top" true
    (sol.D.at_entry.(1) = D.Assigned.All);
  Alcotest.(check bool) "orphan exit is top" true
    (sol.D.at_exit.(1) = D.Assigned.All)

let test_refine_is_stable_without_widening () =
  let cfg = diamond () in
  let ((module C) as consts) = D.Consts.analysis cfg in
  let sol = D.solve consts cfg in
  let refined = D.refine consts cfg sol in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "entry fact of %d unchanged" i)
      true
      (C.equal sol.D.at_entry.(i) refined.D.at_entry.(i));
    Alcotest.(check bool)
      (Printf.sprintf "exit fact of %d unchanged" i)
      true
      (C.equal sol.D.at_exit.(i) refined.D.at_exit.(i))
  done

let suite =
  [
    Alcotest.test_case "reaching: defs at a join" `Quick test_reaching;
    Alcotest.test_case "avail: must-availability across a diamond" `Quick
      test_avail;
    Alcotest.test_case "assigned: definite assignment" `Quick test_assigned;
    Alcotest.test_case "consts: constant-branch edge pruning" `Quick
      test_consts_edge_pruning;
    Alcotest.test_case "copies: cross-block copy facts" `Quick test_copies;
    Alcotest.test_case "copies: a copy its own block ends" `Quick
      test_copies_ended_in_block;
    Alcotest.test_case "liveness: agrees with Live.analyse" `Quick
      test_liveness_matches_live;
    Alcotest.test_case "instr_facts / term_fact replay" `Quick
      test_instr_facts_and_term_fact;
    Alcotest.test_case "iterations: one pass on acyclic CFGs" `Quick
      test_iterations_bounded;
    Alcotest.test_case "unreachable blocks keep init" `Quick
      test_unreachable_blocks_keep_init;
    Alcotest.test_case "refine: no-op at a fixpoint" `Quick
      test_refine_is_stable_without_widening;
    QCheck_alcotest.to_alcotest (prop_cse_reference ~unsafe:false);
    QCheck_alcotest.to_alcotest (prop_cse_reference ~unsafe:true);
    QCheck_alcotest.to_alcotest prop_liveness_generated;
    QCheck_alcotest.to_alcotest prop_liveness_hand_built;
    QCheck_alcotest.to_alcotest (prop_liveness_memo ("Mini-C", raw_minic));
    QCheck_alcotest.to_alcotest (prop_liveness_memo ("bytecode", raw_bytecode));
  ]
