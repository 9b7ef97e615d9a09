(* Unit tests for the generic dataflow solver and its bundled analyses. *)

module Ir = Hypar_ir
module D = Ir.Dataflow

let mk name id = { Ir.Instr.vname = name; vid = id; vwidth = 16 }

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
  let sol = D.solve (module D.Reaching) cfg in
  (* x at exit entry: the entry def and the redefinition in b both reach *)
  let sites = D.Reaching.sites 0 sol.D.at_entry.(3) in
  Alcotest.(check (list (pair int int)))
    "x defs reaching exit"
    [ (0, 0); (2, 1) ]
    (List.map (fun (p : D.pos) -> (p.D.block, p.D.index)) sites);
  (* z at exit: one def per arm *)
  let z_sites = D.Reaching.sites 2 sol.D.at_entry.(3) in
  Alcotest.(check int) "two z defs reach exit" 2 (List.length z_sites);
  (* inside the entry block nothing reaches yet *)
  Alcotest.(check (list (pair int int)))
    "nothing reaches the entry" []
    (List.map
       (fun (p : D.pos) -> (p.D.block, p.D.index))
       (D.Reaching.sites 0 sol.D.at_entry.(0)))

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
  let sol = D.solve (module D.Consts) cfg in
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
  let sol = D.solve (module D.Copies) cfg in
  Alcotest.(check bool) "y = x crosses the block boundary" true
    (D.Copies.find 1 sol.D.at_entry.(1) = Some (Ir.Instr.Var x));
  Alcotest.(check bool) "redefinition replaces the copy" true
    (D.Copies.find 1 sol.D.at_entry.(2) = Some (Ir.Instr.Imm 5))

let test_liveness_matches_live () =
  let cfg = diamond () in
  let sol = D.solve (module D.Liveness) cfg in
  let live = Ir.Live.analyse cfg in
  let of_list l = List.map (fun (v : Ir.Instr.var) -> v.Ir.Instr.vname) l in
  let of_map m =
    List.map
      (fun (_, (v : Ir.Instr.var)) -> v.Ir.Instr.vname)
      (D.Int_map.bindings m)
  in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    Alcotest.(check (list string))
      (Printf.sprintf "live-in of %d" i)
      (of_list (Ir.Live.live_in live i))
      (of_map sol.D.at_entry.(i));
    Alcotest.(check (list string))
      (Printf.sprintf "live-out of %d" i)
      (of_list (Ir.Live.live_out live i))
      (of_map sol.D.at_exit.(i))
  done

let test_instr_facts_and_term_fact () =
  let cfg = constant_branch () in
  let sol = D.solve (module D.Consts) cfg in
  (* before the compare in the entry block, x = 7 already holds *)
  (match D.instr_facts (module D.Consts) cfg sol 0 with
  | [ (_, before_mov); (_, before_cmp) ] ->
    Alcotest.(check (option int)) "nothing before the first instr" None
      (D.Consts.find 0 before_mov);
    Alcotest.(check (option int)) "x known before the compare" (Some 7)
      (D.Consts.find 0 before_cmp)
  | _ -> Alcotest.fail "entry has two instructions");
  Alcotest.(check (option int)) "condition known at the terminator" (Some 1)
    (D.Consts.find 2 (D.term_fact (module D.Consts) cfg sol 0))

let test_iterations_bounded () =
  (* an acyclic CFG needs exactly one transfer per reachable block *)
  let cfg = diamond () in
  let sol = D.solve (module D.Reaching) cfg in
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
  let sol = D.solve (module D.Consts) cfg in
  let refined = D.refine (module D.Consts) cfg sol in
  for i = 0 to Ir.Cfg.block_count cfg - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "entry fact of %d unchanged" i)
      true
      (D.Consts.equal sol.D.at_entry.(i) refined.D.at_entry.(i));
    Alcotest.(check bool)
      (Printf.sprintf "exit fact of %d unchanged" i)
      true
      (D.Consts.equal sol.D.at_exit.(i) refined.D.at_exit.(i))
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
  ]
