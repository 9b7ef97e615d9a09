(* The fuzzing subsystem itself: determinism of the RNG and the
   campaign runner, the generator's re-parse guarantee, the shrinker's
   contract, and the corpus round-trip.  These are the properties the
   cram test and CI rely on — if they drift, `hypar fuzz` reports stop
   being reproducible. *)

module Rng = Hypar_fuzzgen.Rng
module Gen = Hypar_fuzzgen.Gen
module Pp = Hypar_fuzzgen.Pp
module Oracle = Hypar_fuzzgen.Oracle
module Shrink = Hypar_fuzzgen.Shrink
module Corpus = Hypar_fuzzgen.Corpus
module Runner = Hypar_fuzzgen.Runner
module Ast = Hypar_minic.Ast

let zero = { Hypar_minic.Token.line = 0; col = 0 }

let rec strip_expr (e : Ast.expr) =
  let desc =
    match e.desc with
    | (Ast.Num _ | Ast.Ident _) as d -> d
    | Ast.Index (a, ix) -> Ast.Index (a, strip_expr ix)
    | Ast.Call (f, args) -> Ast.Call (f, List.map strip_expr args)
    | Ast.Unary (op, a) -> Ast.Unary (op, strip_expr a)
    | Ast.Binary (op, a, b) -> Ast.Binary (op, strip_expr a, strip_expr b)
    | Ast.Ternary (a, b, c) ->
      Ast.Ternary (strip_expr a, strip_expr b, strip_expr c)
  in
  { Ast.desc; epos = zero }

let rec strip_stmt (s : Ast.stmt) =
  let sdesc =
    match s.sdesc with
    | Ast.Decl { name; width; init } ->
      Ast.Decl { name; width; init = Option.map strip_expr init }
    | Ast.Assign { name; value } -> Ast.Assign { name; value = strip_expr value }
    | Ast.Array_assign { arr; index; value } ->
      Ast.Array_assign
        { arr; index = strip_expr index; value = strip_expr value }
    | Ast.If { cond; then_branch; else_branch } ->
      Ast.If
        {
          cond = strip_expr cond;
          then_branch = List.map strip_stmt then_branch;
          else_branch = List.map strip_stmt else_branch;
        }
    | Ast.While { cond; body } ->
      Ast.While { cond = strip_expr cond; body = List.map strip_stmt body }
    | Ast.Do_while { body; cond } ->
      Ast.Do_while { body = List.map strip_stmt body; cond = strip_expr cond }
    | Ast.For { init; cond; step; body } ->
      Ast.For
        {
          init = Option.map strip_stmt init;
          cond = Option.map strip_expr cond;
          step = Option.map strip_stmt step;
          body = List.map strip_stmt body;
        }
    | Ast.Return v -> Ast.Return (Option.map strip_expr v)
    | Ast.Expr_stmt e -> Ast.Expr_stmt (strip_expr e)
    | Ast.Block body -> Ast.Block (List.map strip_stmt body)
  in
  { Ast.sdesc; spos = zero }

let strip (p : Ast.program) =
  {
    Ast.globals = p.globals;
    funcs =
      List.map
        (fun (f : Ast.func) ->
          { f with Ast.body = List.map strip_stmt f.body; fpos = zero })
        p.funcs;
  }

(* structural equality of programs, source positions erased *)
let equal_program a b = strip a = strip b

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000)
      (Rng.int b 1_000_000)
  done;
  (* derive is pure: independent of call order and of any rng state *)
  let d1 = Rng.derive ~seed:9 4 in
  let _ = Rng.derive ~seed:9 0 in
  Alcotest.(check bool) "derive pure" true (d1 = Rng.derive ~seed:9 4);
  Alcotest.(check bool) "derive varies by index" true
    (Rng.derive ~seed:9 4 <> Rng.derive ~seed:9 5);
  Alcotest.(check bool) "derive varies by seed" true
    (Rng.derive ~seed:9 4 <> Rng.derive ~seed:10 4)

let test_generator_roundtrip () =
  (* every generated program pretty-prints to source that re-parses to
     the same AST (modulo positions) — the re-parse guarantee that makes
     shrinking and corpus replay trustworthy *)
  for seed = 1 to 150 do
    let ast = Gen.program seed in
    let src = Pp.program ast in
    match Hypar_minic.Parser.parse_program src with
    | reparsed ->
      if not (equal_program ast reparsed) then
        Alcotest.failf "seed %d: reparse changed the AST\n%s" seed src
    | exception e ->
      Alcotest.failf "seed %d: printed program does not parse (%s)\n%s" seed
        (Printexc.to_string e) src
  done

let test_generator_oracle_clean () =
  (* safe-mode programs pass the whole differential matrix *)
  for seed = 300 to 360 do
    match Oracle.run (Gen.source seed) with
    | Oracle.Pass -> ()
    | v -> Alcotest.failf "seed %d: %s" seed (Oracle.verdict_to_string v)
  done

let test_unsafe_oracle_no_divergence () =
  (* unsafe-mode programs may hit runtime errors (that is their point),
     but with expect_clean:false those are not findings — the backends
     must still agree on every error *)
  let config = { Gen.default_config with Gen.unsafe = true } in
  for seed = 500 to 540 do
    match Oracle.run ~expect_clean:false (Gen.source ~config seed) with
    | Oracle.Pass -> ()
    | v -> Alcotest.failf "unsafe seed %d: %s" seed (Oracle.verdict_to_string v)
  done

let test_shrink_minimizes () =
  (* against a trivial predicate (program mentions the first global
     array's name in a store), shrinking must terminate and produce
     something much smaller that still satisfies the predicate and
     still compiles *)
  let ast = Gen.program 12345 in
  let keep ast' =
    let src = Pp.program ast' in
    match Hypar_minic.Driver.compile ~name:"shrink" src with
    | Ok _ ->
      (try
         ignore (Str.search_forward (Str.regexp_string "g0[") src 0);
         true
       with Not_found -> false)
    | Error _ -> false
  in
  Alcotest.(check bool) "seed satisfies predicate" true (keep ast);
  let reduced = Shrink.minimize ~keep ast in
  Alcotest.(check bool) "reduced satisfies predicate" true (keep reduced);
  let size p = String.length (Pp.program p) in
  Alcotest.(check bool)
    (Printf.sprintf "reduced (%d bytes) smaller than original (%d bytes)"
       (size reduced) (size ast))
    true
    (size reduced <= size ast);
  (* a fixpoint: no one-step candidate still satisfies the predicate *)
  Alcotest.(check bool) "reduction is 1-minimal" true
    (List.for_all (fun c -> not (keep c)) (Shrink.candidates reduced))

let test_corpus_roundtrip () =
  let entry =
    {
      Corpus.name = "sample";
      seed = Some 77;
      signature = "backend/-O:result";
      note = Some "synthetic round-trip fixture";
      source = "int g0[4];\nvoid main() {\n  g0[0] = 1;\n}\n";
    }
  in
  let text = Corpus.to_string entry in
  (match Corpus.parse ~name:"sample" text with
  | Ok e -> Alcotest.(check bool) "parse inverts to_string" true (e = entry)
  | Error e -> Alcotest.failf "corpus parse failed: %s" e);
  (* header comments are transparent to the frontend: the serialized
     entry is itself a compilable Mini-C program *)
  (match Hypar_minic.Driver.compile ~name:"corpus" text with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "serialized entry does not compile: %s"
      (Hypar_ir.Frontend.string_of_error e));
  (* save/load through a temp dir *)
  let dir = Filename.temp_file "hypar-corpus" "" in
  Sys.remove dir;
  let path = Corpus.save ~dir entry in
  (match Corpus.load_dir dir with
  | Ok [ e ] -> Alcotest.(check bool) "load_dir round-trip" true (e = entry)
  | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
  | Error e -> Alcotest.failf "load_dir failed: %s" e);
  Sys.remove path;
  Unix.rmdir dir

(* resolve the corpus directory from either cwd: the test directory
   (dune runtest) or the repo root (direct execution) *)
let corpus_dir () =
  List.find_opt Sys.file_exists [ "corpus"; "test/corpus" ]
  |> Option.value ~default:"corpus"

let test_corpus_replay_green () =
  (* the checked-in corpus replays clean — same gate as `hypar fuzz
     --replay test/corpus` in CI, but inside the tier-1 suite *)
  match Corpus.load_dir (corpus_dir ()) with
  | Error e -> Alcotest.failf "test/corpus unreadable: %s" e
  | Ok [] -> Alcotest.fail "test/corpus is empty"
  | Ok entries ->
    List.iter
      (fun e ->
        match Corpus.replay e with
        | Oracle.Pass -> ()
        | v ->
          Alcotest.failf "corpus %s: %s" e.Corpus.name
            (Oracle.verdict_to_string v))
      entries

let test_runner_jobs_independent () =
  let base = { Runner.default with Runner.seed = 11; count = 40 } in
  let r1 = Runner.run base in
  let r2 = Runner.run { base with Runner.jobs = 2 } in
  Alcotest.(check string) "text reports identical" (Runner.to_text r1)
    (Runner.to_text r2);
  Alcotest.(check string) "json reports identical" (Runner.to_json r1)
    (Runner.to_json r2);
  Alcotest.(check int) "all executed" 40 r1.Runner.executed

let test_runner_finds_and_shrinks () =
  (* an injected failure: programs storing through g0 are flagged, and
     the shrinker must reduce each to a still-compiling reproducer that
     keeps the signature *)
  let config =
    {
      Runner.default with
      Runner.seed = 3;
      count = 30;
      fail_on = Some "g0[(";
    }
  in
  let r = Runner.run config in
  Alcotest.(check bool) "found injected failures" true
    (r.Runner.failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) "signature preserved" "injected"
        f.Runner.finding.Oracle.signature;
      Alcotest.(check bool) "reduced no larger" true
        (String.length f.Runner.reduced <= String.length f.Runner.source);
      match Hypar_minic.Driver.compile ~name:"red" f.Runner.reduced with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "reduced reproducer does not compile: %s\n%s"
          (Hypar_ir.Frontend.string_of_error e)
          f.Runner.reduced)
    r.Runner.failures

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "generator reparse round-trip" `Quick
      test_generator_roundtrip;
    Alcotest.test_case "generator passes oracle" `Quick
      test_generator_oracle_clean;
    Alcotest.test_case "unsafe grammar never diverges" `Quick
      test_unsafe_oracle_no_divergence;
    Alcotest.test_case "shrinker minimizes" `Quick test_shrink_minimizes;
    Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus replays green" `Quick test_corpus_replay_green;
    Alcotest.test_case "runner jobs-independent" `Quick
      test_runner_jobs_independent;
    Alcotest.test_case "runner shrinks injected failures" `Quick
      test_runner_finds_and_shrinks;
  ]
