(* Unit tests for the clean-up passes: constant folding, copy propagation,
   dead-code elimination, and their semantics preservation. *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let compile_raw src = Driver.compile_exn ~simplify:false src

let out0 cdfg = (Interp.array_exn (Interp.run cdfg) "out").(0)

let test_const_fold_arithmetic () =
  let cdfg = compile_raw {|
int out[4];
void main() {
  int a = 3 + 4;
  int b = a * 10;
  out[0] = b - 5;
}
|} in
  let folded = Ir.Passes.simplify cdfg in
  Alcotest.(check int) "value preserved" 65 (out0 folded);
  (* after folding + DCE the entry block should be a couple of stores of
     constants at most *)
  let instrs = Ir.Cdfg.total_instrs folded in
  Alcotest.(check bool)
    (Printf.sprintf "program shrank to %d instrs" instrs)
    true (instrs <= 2)

let test_const_fold_branch () =
  let cdfg = compile_raw {|
int out[4];
void main() {
  if (2 > 1) {
    out[0] = 111;
  } else {
    out[0] = 222;
  }
}
|} in
  let folded = Ir.Passes.const_fold cdfg in
  (* the branch became a jump: no Branch terminator on a constant *)
  let has_const_branch =
    Array.exists
      (fun (b : Ir.Block.t) ->
        match b.term with
        | Ir.Block.Branch { cond = Ir.Instr.Imm _; _ } -> true
        | Ir.Block.Branch _ | Ir.Block.Jump _ | Ir.Block.Return _ -> false)
      (Ir.Cfg.blocks (Ir.Cdfg.cfg folded))
  in
  Alcotest.(check bool) "no constant-condition branch left" false has_const_branch;
  Alcotest.(check int) "semantics preserved" 111 (out0 folded)

let test_division_not_folded_unsafely () =
  let cdfg = compile_raw {|
int out[4];
void main() {
  int a = 10 / 2;
  out[0] = a;
}
|} in
  let folded = Ir.Passes.simplify cdfg in
  Alcotest.(check int) "constant division folded" 5 (out0 folded)

let test_copy_propagation () =
  let cdfg = compile_raw {|
int out[4];
int in[4];
void main() {
  int a = in[0];
  int b = a;
  int c = b;
  out[0] = c + c;
}
|} in
  let simplified = Ir.Passes.simplify cdfg in
  let run cdfg =
    (Interp.array_exn (Interp.run ~inputs:[ ("in", [| 21 |]) ] cdfg) "out").(0)
  in
  Alcotest.(check int) "before" 42 (run cdfg);
  Alcotest.(check int) "after" 42 (run simplified);
  Alcotest.(check bool) "fewer instructions" true
    (Ir.Cdfg.total_instrs simplified < Ir.Cdfg.total_instrs cdfg)

let test_dce_keeps_stores () =
  let cdfg = compile_raw {|
int out[4];
void main() {
  int unused = 5 * 5;
  out[1] = 9;
}
|} in
  let cleaned = Ir.Passes.dead_code_eliminate (Ir.Passes.const_fold cdfg) in
  let r = Interp.run cleaned in
  Alcotest.(check int) "store survives" 9 (Interp.array_exn r "out").(1)

let test_dce_removes_dead_load () =
  let cdfg = compile_raw {|
int out[4];
int in[4];
void main() {
  int dead = in[2];
  out[0] = 1;
}
|} in
  let cleaned = Ir.Passes.simplify cdfg in
  let loads =
    Array.fold_left
      (fun acc (bi : Ir.Cdfg.block_info) ->
        acc
        + List.length (List.filter Ir.Instr.is_load bi.block.Ir.Block.instrs))
      0 (Ir.Cdfg.infos cleaned)
  in
  Alcotest.(check int) "dead load removed" 0 loads

let test_simplify_idempotent () =
  let cdfg = compile_raw (Hypar_fuzzgen.Gen.source 5) in
  let s1 = Ir.Passes.simplify cdfg in
  let s2 = Ir.Passes.simplify s1 in
  Alcotest.(check int) "same size after second round"
    (Ir.Cdfg.total_instrs s1) (Ir.Cdfg.total_instrs s2)

let test_semantics_preserved_random () =
  (* run 12 random programs through the passes and compare results *)
  for seed = 1 to 12 do
    let raw = compile_raw (Hypar_fuzzgen.Gen.source seed) in
    Outputs.check (Printf.sprintf "seed %d" seed) raw (Ir.Passes.simplify raw)
  done

(* --- the pass contract: no-op identity and the DFG cache ------------------ *)

let public_passes =
  Ir.Passes.
    [
      ("const_fold", const_fold);
      ("copy_propagate", copy_propagate);
      ("algebraic_simplify", algebraic_simplify);
      ("common_subexpressions", common_subexpressions);
      ("dead_code_eliminate", dead_code_eliminate);
      ("simplify_cfg", simplify_cfg);
      ("loop_invariant_motion", loop_invariant_motion);
      ("global_const_propagate", global_const_propagate);
      ("global_copy_propagate", global_copy_propagate);
      ("global_cse", global_cse);
    ]

let apps =
  Hypar_apps.
    [ ("ofdm", Ofdm.source); ("jpeg", Jpeg.source); ("adpcm", Adpcm.source);
      ("sobel", Sobel.source) ]

let test_noop_returns_input () =
  List.iter
    (fun (app, src) ->
      let out = Ir.Passes.optimize (compile_raw src) in
      List.iter
        (fun (pass, run) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s" app pass) true (run out == out))
        public_passes;
      Alcotest.(check bool) (app ^ ": simplify, one round") true
        (Ir.Passes.simplify ~max_rounds:1 out == out))
    apps

let test_optimize_verifies_input () =
  (* reads "ghost", which no instruction defines *)
  let ghost = Ir.Instr.{ vname = "ghost"; vid = 7; vwidth = 16 } in
  let x = Ir.Instr.{ vname = "x"; vid = 0; vwidth = 16 } in
  let b =
    Ir.Block.make ~label:"bb0"
      ~instrs:[ Ir.Instr.Mov { dst = x; src = Var ghost } ]
      ~term:(Ir.Block.Return None)
  in
  let broken = Ir.Cdfg.make ~arrays:[] (Ir.Cfg.of_blocks [ b ]) in
  match Ir.Passes.optimize ~verify:true broken with
  | _ -> Alcotest.fail "expected Verify.Failed"
  | exception Ir.Verify.Failed { context; _ } ->
    Alcotest.(check string) "context" "input" context

(* a DFG compared by what its consumers read: nodes, edges, ASAP levels and
   live-ins *)
let dfg_view d =
  let node (nd : Ir.Dfg.node) = (nd.id, nd.instr, Ir.Dfg.succs d nd.id) in
  (List.map node (Ir.Dfg.nodes d), Ir.Dfg.asap d, Ir.Dfg.live_in_vars d)

let fresh_dfg cdfg i = Ir.Dfg.of_instrs (Ir.Cdfg.info cdfg i).Ir.Cdfg.block.Ir.Block.instrs

let check_dfgs what cdfg =
  List.iter
    (fun i ->
      if dfg_view (Ir.Cdfg.dfg cdfg i) <> dfg_view (fresh_dfg cdfg i) then
        Alcotest.failf "%s: cached DFG of BB%d differs from a fresh build" what i)
    (Ir.Cdfg.block_ids cdfg)

(* every DFG of each input is built before the pass runs, so a slot a pass
   carries over wrongly is read back by [check_dfgs] *)
let test_dfg_cache_matches_rebuild () =
  let unsafe = { Hypar_fuzzgen.Gen.default_config with Hypar_fuzzgen.Gen.unsafe = true } in
  List.iter
    (fun (grammar, config) ->
      for seed = 1 to 12 do
        let src = Hypar_fuzzgen.Gen.source ~config seed in
        let c = ref (compile_raw src) in
        for round = 1 to 2 do
          List.iter
            (fun (pass, run) ->
              check_dfgs "input" !c;
              c := run !c;
              check_dfgs
                (Printf.sprintf "%s seed %d round %d: %s" grammar seed round pass)
                !c)
            public_passes
        done
      done)
    [ ("safe", Hypar_fuzzgen.Gen.default_config); ("unsafe", unsafe) ]

let test_dfg_concurrent_first_use () =
  (* unverified: verification builds every DFG *)
  let cdfg = Driver.compile_exn ~name:"jpeg" ~verify_ir:false Hypar_apps.Jpeg.source in
  let ids = Ir.Cdfg.block_ids cdfg in
  let started = Atomic.make 0 in
  let force () =
    Atomic.incr started;
    while Atomic.get started < 4 do Domain.cpu_relax () done;
    List.map (fun i -> Ir.Cdfg.dfg cdfg i) ids
  in
  let results = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn force)) in
  List.iteri
    (fun d dfgs ->
      List.iter2
        (fun i got ->
          if dfg_view got <> dfg_view (fresh_dfg cdfg i) then
            Alcotest.failf "domain %d: DFG of BB%d differs from a single-domain build" d i)
        ids dfgs)
    results

(* --- the oracle pipeline: every pass against its old body --------------- *)

module Ref = Passes_reference

(* each library pass beside the body it replaced (test/passes_reference.ml) *)
let oracle_pairs =
  [
    ("const_fold", Ir.Passes.const_fold, Ref.const_fold);
    ("copy_propagate", Ir.Passes.copy_propagate, Ref.copy_propagate);
    ("algebraic_simplify", Ir.Passes.algebraic_simplify, Ref.algebraic_simplify);
    ("common_subexpressions", Ir.Passes.common_subexpressions, Ref.common_subexpressions);
    ("dead_code_eliminate", Ir.Passes.dead_code_eliminate, Ref.dead_code_eliminate);
    ("simplify_cfg", Ir.Passes.simplify_cfg, Ref.simplify_cfg);
    ("loop_invariant_motion", Ir.Passes.loop_invariant_motion, Ref.loop_invariant_motion);
    ("global_const_propagate", Ir.Passes.global_const_propagate, Ref.global_const_propagate);
    ("global_copy_propagate", Ir.Passes.global_copy_propagate, Ref.global_copy_propagate);
    ("global_cse", Ir.Passes.global_cse, Ref.global_cse);
    ("simplify", (fun c -> Ir.Passes.simplify ~verify:false c), fun c -> Ref.simplify c);
    ("optimize", (fun c -> Ir.Passes.optimize ~verify:false c), Ref.optimize);
  ]

(* every block runs its instructions twice: each pure expression is
   computed again after whatever redefined its operands, its holder or
   its array in between, which generated programs alone rarely do *)
let doubled cdfg =
  Ir.Cdfg.make ~name:(Ir.Cdfg.name cdfg) ~arrays:(Ir.Cdfg.arrays cdfg)
    (Ir.Cfg.of_blocks
       (List.map
          (fun (b : Ir.Block.t) -> { b with Ir.Block.instrs = b.instrs @ b.instrs })
          (Array.to_list (Ir.Cfg.blocks (Ir.Cdfg.cfg cdfg)))))

(* the raw program, its doubled blocks, part-way through the pipeline and
   fully optimised: each pass meets inputs it rewrites and inputs it
   leaves alone *)
let stages raw =
  let mid = Ref.simplify_cfg (Ref.simplify raw) in
  [ ("raw", raw); ("doubled", doubled raw); ("mid", mid); ("optimised", Ref.optimize raw) ]

(* the library pass serialises byte for byte like the oracle, and returns
   its input physically exactly when the oracle finds nothing changed *)
let matches_oracle raw =
  List.for_all
    (fun (stage, input) ->
      List.for_all
        (fun (pass, lib, oracle) ->
          let got = lib input and want = oracle input in
          if not (String.equal (Ir.Serialize.to_string got) (Ir.Serialize.to_string want))
          then
            QCheck.Test.fail_reportf "%s on the %s program: output differs from the oracle"
              pass stage
          else if (got == input) <> (want == input) then
            QCheck.Test.fail_reportf
              "%s on the %s program: returns its input %b, the oracle %b" pass stage
              (got == input) (want == input)
          else true)
        oracle_pairs)
    (stages raw)

let raw_minic ~unsafe seed =
  let config = { Hypar_fuzzgen.Gen.default_config with unsafe } in
  compile_raw (Hypar_fuzzgen.Gen.source ~config seed)

(* the same program through the second frontend: the bytecode the
   unoptimised CDFG compiles to, decompiled without optimisation *)
let raw_bytecode ~unsafe seed =
  Hypar_bytecode.Driver.compile_exn ~name:"oracle" ~optimize:false
    (Hypar_bytecode.Emit.to_string (raw_minic ~unsafe seed))

let prop_oracle (frontend, compile, count) =
  QCheck.Test.make
    ~name:(Printf.sprintf "passes: every pass and optimize match the oracle (%s)" frontend)
    ~count
    QCheck.(make ~print:(fun (s, u) -> Printf.sprintf "seed %d, unsafe %b" s u)
              Gen.(pair (int_range 1 1_000_000) bool))
    (fun (seed, unsafe) -> matches_oracle (compile ~unsafe seed))

(* --- the dense lattices against their map references --------------------- *)

(* The registers whose facts cross a block boundary, found here without
   the library: each block's reads before its own defs (the terminator's
   included).  The dense facts must agree with the map oracle on these;
   on any other register the map may know more, but no rewrite reads it. *)
let crossing cfg =
  let regs = Hashtbl.create 16 in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let defined = Hashtbl.create 16 in
      let read (v : Ir.Instr.var) =
        if not (Hashtbl.mem defined v.Ir.Instr.vid) then Hashtbl.replace regs v.vid ()
      in
      List.iter
        (fun instr ->
          List.iter read (Ir.Instr.used_vars instr);
          Option.iter
            (fun (d : Ir.Instr.var) -> Hashtbl.replace defined d.Ir.Instr.vid ())
            (Ir.Instr.def instr))
        b.Ir.Block.instrs;
      List.iter read (Ir.Block.terminator_uses b))
    (Ir.Cfg.blocks cfg);
  List.sort compare (Hashtbl.fold (fun vid () l -> vid :: l) regs [])

(* one dense lattice and its map oracle, each read as "what register
   [vid] holds" *)
type 'o lattice = {
  oracle : (module Ir.Dataflow.ANALYSIS with type t = 'o);
  solve : Ir.Cfg.t -> Ir.Dataflow.dense Ir.Dataflow.solution;
  reached : 'o -> bool;
  find_oracle : int -> 'o -> Ir.Instr.operand option;
  find : int -> Ir.Dataflow.dense -> Ir.Instr.operand option;
}

let consts_lattice =
  let imm = Option.map (fun n -> Ir.Instr.Imm n) in
  { oracle = (module Ref.Consts);
    solve = Ir.Dataflow.Consts.solve;
    reached = (fun f -> f <> Ref.Consts.Unreached);
    find_oracle = (fun vid f -> imm (Ref.Consts.find vid f));
    find = (fun vid f -> imm (Ir.Dataflow.Consts.find vid f)) }

let copies_lattice =
  { oracle = (module Ref.Copies);
    solve = Ir.Dataflow.Copies.solve;
    reached = (fun f -> f <> Ref.Copies.All);
    find_oracle = Ref.Copies.find;
    find = Ir.Dataflow.Copies.find }

let same_operand a b =
  match (a, b) with
  | Some (Ir.Instr.Var v1), Some (Ir.Instr.Var v2) -> v1.Ir.Instr.vid = v2.Ir.Instr.vid
  | Some (Imm n1), Some (Imm n2) -> n1 = n2
  | None, None -> true
  | Some (Var _ | Imm _), _ | None, Some _ -> false

(* every block's entry and exit fact agrees with the oracle's: reached
   on the same blocks, and holding the same operand in every crossing
   register *)
let dense_matches l stage input =
  let cfg = Ir.Cdfg.cfg input in
  let got = l.solve cfg and want = Ir.Dataflow.solve l.oracle cfg in
  let regs = crossing cfg in
  let differs side (g : Ir.Dataflow.dense array) w i =
    if (g.(i) <> Ir.Dataflow.Unreached) <> l.reached w.(i) then
      QCheck.Test.fail_reportf "%s program: BB%d's %s is reached on one side only" stage i side
    else
      match
        List.find_opt
          (fun vid -> not (same_operand (l.find vid g.(i)) (l.find_oracle vid w.(i))))
          regs
      with
      | Some vid ->
        QCheck.Test.fail_reportf "%s program: the facts at BB%d's %s differ on register %d"
          stage i side vid
      | None -> true
  in
  List.for_all
    (fun i ->
      differs "entry" got.Ir.Dataflow.at_entry want.Ir.Dataflow.at_entry i
      && differs "exit" got.Ir.Dataflow.at_exit want.Ir.Dataflow.at_exit i)
    (Ir.Cdfg.block_ids input)

let prop_dense (name, lattice) (frontend, compile, count) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: the lattice solves like its reference (%s)" name frontend)
    ~count
    QCheck.(make ~print:(fun (s, u) -> Printf.sprintf "seed %d, unsafe %b" s u)
              Gen.(pair (int_range 1 1_000_000) bool))
    (fun (seed, unsafe) ->
      List.for_all
        (fun (stage, input) -> dense_matches lattice stage input)
        (stages (compile ~unsafe seed)))

(* the bundled applications, the bytecode examples and the crash corpus,
   at every stage *)
let test_dense_fixed_programs () =
  let read f = In_channel.with_open_text f In_channel.input_all in
  (* from the test directory under dune runtest, or from the root *)
  let dir candidates ext =
    let d = Option.value (List.find_opt Sys.file_exists candidates) ~default:(List.hd candidates) in
    List.map (Filename.concat d)
      (List.filter (fun f -> Filename.check_suffix f ext) (Array.to_list (Sys.readdir d)))
  in
  let programs =
    List.map
      (fun (name, src) -> (name, Hypar_minic.Driver.compile_exn ~name ~simplify:false src))
      (Hypar_apps.[ ("ofdm", Ofdm.source); ("jpeg", Jpeg.source); ("sobel", Sobel.source);
                    ("adpcm", Adpcm.source) ]
       @ List.map (fun f -> (f, read f)) (dir [ "corpus"; "test/corpus" ] ".mc"))
    @ List.map
        (fun f ->
          (f, Hypar_bytecode.Driver.compile_exn ~name:f ~optimize:false (read f)))
        (dir [ "../examples/bytecode"; "examples/bytecode" ] ".hbc")
  in
  List.iter
    (fun (name, raw) ->
      List.iter
        (fun (stage, input) ->
          List.iter
            (fun (what, ok) ->
              if not ok then Alcotest.failf "%s, %s program: %s facts differ" name stage what)
            [ ("consts", dense_matches consts_lattice stage input);
              ("copies", dense_matches copies_lattice stage input) ])
        (stages raw))
    programs

let prop_consts = prop_dense ("consts", consts_lattice)
let prop_copies = prop_dense ("copies", copies_lattice)

(* --- sharing: a pass rebuilds only the blocks it changes ----------------- *)

let label_index cdfg =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (b : Ir.Block.t) -> Hashtbl.replace tbl b.Ir.Block.label b)
    (Ir.Cfg.blocks (Ir.Cdfg.cfg cdfg));
  tbl

(* every output block equal to the input's block of the same label is
   that block; when no label or terminator is new, the successor and
   predecessor lists and the loop depths are the input's *)
let check_sharing what input out =
  let before = label_index input in
  Array.iteri
    (fun i (b : Ir.Block.t) ->
      match Hashtbl.find_opt before b.Ir.Block.label with
      | Some old when old = b && old != b ->
        Alcotest.failf "%s: BB%d (%s) is unchanged but rebuilt" what i b.Ir.Block.label
      | Some _ | None -> ())
    (Ir.Cfg.blocks (Ir.Cdfg.cfg out));
  let old_blocks = Ir.Cfg.blocks (Ir.Cdfg.cfg input)
  and new_blocks = Ir.Cfg.blocks (Ir.Cdfg.cfg out) in
  if
    Array.length old_blocks = Array.length new_blocks
    && Array.for_all2
         (fun (o : Ir.Block.t) (b : Ir.Block.t) ->
           o.Ir.Block.label == b.Ir.Block.label && o.Ir.Block.term == b.Ir.Block.term)
         old_blocks new_blocks
  then
    Array.iteri
      (fun i _ ->
        let c_in = Ir.Cdfg.cfg input and c_out = Ir.Cdfg.cfg out in
        if
          Ir.Cfg.successors c_in i != Ir.Cfg.successors c_out i
          || Ir.Cfg.predecessors c_in i != Ir.Cfg.predecessors c_out i
        then Alcotest.failf "%s: the edges of BB%d were resolved again" what i;
        if (Ir.Cdfg.info input i).Ir.Cdfg.loop_depth <> (Ir.Cdfg.info out i).Ir.Cdfg.loop_depth
        then Alcotest.failf "%s: the loop depth of BB%d changed" what i)
      old_blocks

let test_sharing_generated () =
  for seed = 1 to 25 do
    List.iter
      (fun (stage, input) ->
        List.iter
          (fun (pass, run) ->
            check_sharing (Printf.sprintf "seed %d, %s program: %s" seed stage pass)
              input (run input))
          public_passes)
      (stages (raw_minic ~unsafe:(seed mod 2 = 0) seed))
  done

(* a loop of two blocks and an exit; only the latch has something to fold *)
let test_sharing_one_block () =
  let var vname vid = { Ir.Instr.vname; vid; vwidth = 16 } in
  let x = var "x" 0 and y = var "y" 1 in
  let block label instrs term = Ir.Block.make ~label ~instrs ~term in
  let blocks =
    [
      block "head"
        [ Ir.Instr.Load { dst = x; arr = "in"; index = Imm 0 } ]
        (Ir.Block.Branch { cond = Var x; if_true = "latch"; if_false = "exit" });
      block "latch"
        [ Ir.Instr.Bin { dst = y; op = Ir.Types.Add; a = Imm 2; b = Imm 3 } ]
        (Ir.Block.Jump "head");
      block "exit" [] (Ir.Block.Return (Some (Var x)));
    ]
  in
  let input_decl =
    { Ir.Cdfg.aname = "in"; size = 4; init = None; is_const = false; elem_width = 16 }
  in
  let input = Ir.Cdfg.make ~arrays:[ input_decl ] (Ir.Cfg.of_blocks blocks) in
  let out = Ir.Passes.const_fold input in
  let rebuilt =
    List.filter
      (fun i ->
        (Ir.Cdfg.info out i).Ir.Cdfg.block != (Ir.Cdfg.info input i).Ir.Cdfg.block)
      (Ir.Cdfg.block_ids out)
  in
  Alcotest.(check (list int)) "only the latch is rebuilt" [ 1 ] rebuilt;
  Alcotest.(check int) "the latch is in the loop" 1 (Ir.Cdfg.info out 1).Ir.Cdfg.loop_depth;
  check_sharing "const_fold" input out

(* Each global pass shrinks at least two of the four applications.  DCE
   alone already shrinks all four, so "pass then DCE below the raw CDFG"
   holds for the identity; the later checks compare against the same
   pipeline without the pass.  Global copy propagation beats DCE alone on
   JPEG only. *)
let test_global_passes_shrink_apps () =
  let module P = Ir.Passes in
  let raws = List.map (fun (app, src) -> (app, compile_raw src)) apps in
  let size pipeline raw = Ir.Cdfg.total_instrs (pipeline raw) in
  let shrinks ~than pipeline =
    List.filter (fun (_, raw) -> size pipeline raw < size than raw) raws
    |> List.map fst
  in
  let at_least_two what apps =
    Alcotest.(check bool)
      (Printf.sprintf "%s shrinks %s" what (String.concat "," apps))
      true
      (List.length apps >= 2)
  in
  let dce = P.dead_code_eliminate in
  List.iter
    (fun (name, pass) ->
      at_least_two (name ^ " + DCE vs raw") (shrinks ~than:Fun.id (fun c -> dce (pass c))))
    [ ("const", P.global_const_propagate); ("copy", P.global_copy_propagate);
      ("cse", P.global_cse) ];
  at_least_two "const + DCE vs DCE"
    (shrinks ~than:dce (fun c -> dce (P.global_const_propagate c)));
  at_least_two "cse + copy + DCE vs copy + DCE"
    (shrinks ~than:(fun c -> dce (P.copy_propagate c))
       (fun c -> dce (P.copy_propagate (P.global_cse c))));
  Alcotest.(check bool) "copy + DCE vs DCE shrinks jpeg" true
    (List.mem "jpeg" (shrinks ~than:dce (fun c -> dce (P.global_copy_propagate c))))

let suite =
  [
    Alcotest.test_case "const fold arithmetic" `Quick test_const_fold_arithmetic;
    Alcotest.test_case "const fold branch" `Quick test_const_fold_branch;
    Alcotest.test_case "constant division" `Quick test_division_not_folded_unsafely;
    Alcotest.test_case "copy propagation" `Quick test_copy_propagation;
    Alcotest.test_case "DCE keeps stores" `Quick test_dce_keeps_stores;
    Alcotest.test_case "DCE removes dead loads" `Quick test_dce_removes_dead_load;
    Alcotest.test_case "simplify idempotent" `Quick test_simplify_idempotent;
    Alcotest.test_case "random semantics preserved" `Quick test_semantics_preserved_random;
    Alcotest.test_case "no-op passes return their input" `Quick test_noop_returns_input;
    Alcotest.test_case "optimize verifies its input" `Quick test_optimize_verifies_input;
    Alcotest.test_case "DFG cache matches a rebuild" `Quick test_dfg_cache_matches_rebuild;
    Alcotest.test_case "DFG first use from 4 domains" `Quick test_dfg_concurrent_first_use;
    Alcotest.test_case "a pass shares the blocks it leaves alone" `Quick test_sharing_generated;
    Alcotest.test_case "one folded block, the rest shared" `Quick test_sharing_one_block;
    Alcotest.test_case "global passes shrink the apps" `Quick test_global_passes_shrink_apps;
    (* 200 programs: decompiled bytecode is larger, so fewer of it *)
    QCheck_alcotest.to_alcotest (prop_oracle ("Mini-C", raw_minic, 150));
    QCheck_alcotest.to_alcotest (prop_oracle ("bytecode", raw_bytecode, 50));
    QCheck_alcotest.to_alcotest (prop_consts ("Mini-C", raw_minic, 150));
    QCheck_alcotest.to_alcotest (prop_consts ("bytecode", raw_bytecode, 100));
    Alcotest.test_case "consts and copies: the apps, examples and corpus" `Quick
      test_dense_fixed_programs;
    QCheck_alcotest.to_alcotest (prop_copies ("Mini-C", raw_minic, 150));
    QCheck_alcotest.to_alcotest (prop_copies ("bytecode", raw_bytecode, 100));
  ]
