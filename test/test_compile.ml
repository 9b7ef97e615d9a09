(* Golden oracle tests for the compiled profiling backend: the flattened
   executor (Compile/Exec) must produce Interp.result values byte-identical
   to the tree-walking interpreter — on the four benchmark applications,
   on the bundled bytecode examples, and on the runtime edge cases (fuel
   exhaustion, cooperative polling, every Runtime_error message). *)

module Ir = Hypar_ir
module Interp = Hypar_profiling.Interp
module Exec = Hypar_profiling.Exec
module Compile = Hypar_profiling.Compile

let compile = Hypar_minic.Driver.compile_exn

let edge = Alcotest.(pair (pair int int) int)
let arrays = Alcotest.(list (pair string (array int)))

let check_same what (tree : Interp.result) (comp : Interp.result) =
  Alcotest.(check (array int))
    (what ^ ": exec_freq") tree.Interp.exec_freq comp.Interp.exec_freq;
  Alcotest.(check (array int)) (what ^ ": mem_reads") tree.mem_reads comp.mem_reads;
  Alcotest.(check (array int)) (what ^ ": mem_writes") tree.mem_writes comp.mem_writes;
  Alcotest.(check (list edge)) (what ^ ": edge_freq") tree.edge_freq comp.edge_freq;
  Alcotest.(check int) (what ^ ": instrs_executed") tree.instrs_executed
    comp.instrs_executed;
  Alcotest.(check int) (what ^ ": blocks_executed") tree.blocks_executed
    comp.blocks_executed;
  Alcotest.(check (option int)) (what ^ ": return_value") tree.return_value
    comp.return_value;
  Alcotest.(check arrays) (what ^ ": arrays") tree.arrays comp.arrays

(* Run both backends under identical parameters and require the same
   outcome: equal results, or the same exception with the same payload.
   [mk_poll] is a factory so each run gets a fresh (stateful) hook. *)
type outcome =
  | Value of Interp.result
  | Error_msg of string
  | Fuel of int
  | Raised of string

type runner =
  ?fuel:int ->
  ?max_steps:int ->
  ?poll:(unit -> unit) ->
  ?inputs:(string * int array) list ->
  Ir.Cdfg.t ->
  Interp.result

let outcome ?fuel ?max_steps ?mk_poll ?inputs (run : runner) cdfg =
  let poll = Option.map (fun f -> f ()) mk_poll in
  match run ?fuel ?max_steps ?poll ?inputs cdfg with
  | r -> Value r
  | exception Interp.Runtime_error m -> Error_msg m
  | exception Interp.Fuel_exhausted { steps } -> Fuel steps
  | exception e -> Raised (Printexc.to_string e)

let show_outcome = function
  | Value _ -> "a result"
  | Error_msg m -> Printf.sprintf "Runtime_error %S" m
  | Fuel s -> Printf.sprintf "Fuel_exhausted { steps = %d }" s
  | Raised s -> s

let check_outcomes what a b =
  match (a, b) with
  | Value ta, Value tb -> check_same what ta tb
  | Error_msg ma, Error_msg mb ->
    Alcotest.(check string) (what ^ ": error message") ma mb
  | Fuel sa, Fuel sb -> Alcotest.(check int) (what ^ ": exhausted steps") sa sb
  | Raised ra, Raised rb -> Alcotest.(check string) (what ^ ": exception") ra rb
  | a, b ->
    Alcotest.failf "%s: tree %s but compiled %s" what (show_outcome a)
      (show_outcome b)

let check_both ?fuel ?max_steps ?mk_poll ?inputs what cdfg =
  check_outcomes what
    (outcome ?fuel ?max_steps ?mk_poll ?inputs Interp.run cdfg)
    (outcome ?fuel ?max_steps ?mk_poll ?inputs Exec.run cdfg)

(* --- the four benchmark applications, field by field --- *)

let apps =
  [
    ("ofdm", Hypar_apps.Ofdm.source, Hypar_apps.Ofdm.inputs ());
    ("jpeg", Hypar_apps.Jpeg.source, Hypar_apps.Jpeg.inputs ());
    ("sobel", Hypar_apps.Sobel.source, Hypar_apps.Sobel.inputs ());
    ("adpcm", Hypar_apps.Adpcm.source, Hypar_apps.Adpcm.inputs ());
  ]

let test_app (name, source, inputs) () =
  let cdfg = compile ~name source in
  check_same name (Interp.run ~inputs cdfg) (Exec.run ~inputs cdfg)

(* --- the bundled bytecode examples --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* resolve the examples directory from either cwd: the test directory
   (dune runtest) or the project root (dune exec test/main.exe) *)
let bytecode_dir () =
  List.find Sys.file_exists
    [ "../examples/bytecode"; "examples/bytecode" ]

let test_bytecode_examples () =
  List.iter
    (fun name ->
      let file = name ^ ".hbc" in
      let src = read_file (Filename.concat (bytecode_dir ()) file) in
      let cdfg = Hypar_bytecode.Driver.compile_exn ~name:file src in
      check_both file cdfg)
    [ "dotprod"; "fib"; "gcd" ]

(* --- compiled-program reuse: one Compile.compile, many Exec.exec --- *)

let test_compile_reuse () =
  let cdfg =
    compile
      {|
int in[8];
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 8; i = i + 1) { s = s + in[i] * in[i]; }
  out[0] = s;
}
|}
  in
  let p = Compile.compile cdfg in
  for seed = 0 to 3 do
    let inputs = [ ("in", Array.init 8 (fun i -> ((i * 7) + seed) mod 11)) ] in
    check_same
      (Printf.sprintf "reuse (seed %d)" seed)
      (Interp.run ~inputs cdfg)
      (Exec.exec ~inputs p)
  done

(* --- fuel: the legacy budget must exhaust at exactly the same unit ---

   The compiled fast path batch-decrements the budget per block, so an
   off-by-one there would move the exhaustion point.  Sweep fuel values
   around the program's exact cost and require identical outcomes. *)

let loop_src =
  {|
int out[1];
void main() {
  int i = 0;
  int s = 0;
  while (i < 50) { s = s + i; i = i + 1; }
  out[0] = s;
}
|}

let test_fuel_boundary () =
  let cdfg = compile loop_src in
  let r = Interp.run cdfg in
  let total = r.Interp.instrs_executed + r.Interp.blocks_executed in
  List.iter
    (fun fuel ->
      check_both ~fuel (Printf.sprintf "fuel=%d (total=%d)" fuel total) cdfg)
    [ 1; 2; total - 2; total - 1; total; total + 1 ]

let test_fuel_exhaustion_message () =
  let cdfg =
    compile
      {|
int out[1];
void main() {
  int i = 0;
  while (i < 1000000) { i = i + 1; }
  out[0] = i;
}
|}
  in
  check_both ~fuel:1000 "fuel message" cdfg

(* --- max_steps: typed exhaustion with identical step counts --- *)

let test_max_steps_boundary () =
  let cdfg = compile loop_src in
  let r = Interp.run cdfg in
  let total = r.Interp.instrs_executed + r.Interp.blocks_executed in
  List.iter
    (fun max_steps ->
      check_both ~max_steps
        (Printf.sprintf "max_steps=%d (total=%d)" max_steps total)
        cdfg)
    [ 1; 7; total - 1; total; total + 1 ]

(* --- poll: same cadence (at least every 1024 units), same call count --- *)

let poll_src =
  {|
int out[1];
void main() {
  int i = 0;
  int s = 0;
  while (i < 2000) { s = s + i; i = i + 1; }
  out[0] = s;
}
|}

let test_poll_cadence () =
  let cdfg = compile poll_src in
  let count (run : runner) =
    let n = ref 0 in
    ignore (run ~poll:(fun () -> incr n) cdfg);
    !n
  in
  let tree = count Interp.run and comp = count Exec.run in
  Alcotest.(check bool) "poll fired" true (tree > 1);
  Alcotest.(check int) "same poll count" tree comp

let test_poll_raises () =
  let cdfg = compile poll_src in
  let mk_poll () =
    let n = ref 0 in
    fun () ->
      incr n;
      if !n = 3 then raise Exit
  in
  check_both ~mk_poll "raising poll" cdfg

(* --- runtime errors: identical messages, byte for byte --- *)

let test_division_by_zero () =
  let cdfg =
    compile {|
int out[1];
int in[1];
void main() { out[0] = 10 / in[0]; }
|}
  in
  check_both "div by zero" cdfg

let test_out_of_bounds () =
  let cdfg = compile {|
int t[4];
void main() { t[4] = 1; }
|} in
  check_both "index 4 of [0,4)" cdfg

let test_negative_index () =
  let cdfg =
    compile {|
int t[4];
int in[1];
void main() { t[in[0] - 1] = 1; }
|}
  in
  check_both "negative index" cdfg

(* The remaining error paths are unreachable from the frontends (the
   typechecker rejects them), so the programs are built directly. *)

let build f =
  let b = Ir.Builder.create () in
  f b;
  Ir.Builder.cdfg b

let test_undefined_read () =
  let cdfg =
    build (fun b ->
        Ir.Builder.declare_array b "out" 1;
        let x = Ir.Builder.fresh_var b "x" in
        Ir.Builder.store b ~arr:"out" (Ir.Builder.imm 0) (Ir.Builder.var x);
        Ir.Builder.finish_block b ~label:"entry" ~term:(Ir.Block.Return None))
  in
  check_both "read of undefined variable" cdfg

let test_undeclared_array () =
  let cdfg =
    build (fun b ->
        let _ = Ir.Builder.load b "t" ~arr:"nosuch" (Ir.Builder.imm 0) in
        Ir.Builder.finish_block b ~label:"entry" ~term:(Ir.Block.Return None))
  in
  check_both "undeclared array" cdfg

let test_store_to_const () =
  let cdfg =
    build (fun b ->
        Ir.Builder.declare_array ~is_const:true ~init:[| 7; 8 |] b "rom" 2;
        Ir.Builder.store b ~arr:"rom" (Ir.Builder.imm 0) (Ir.Builder.imm 1);
        Ir.Builder.finish_block b ~label:"entry" ~term:(Ir.Block.Return None))
  in
  check_both "store to const" cdfg

let test_remainder_by_zero () =
  let cdfg =
    build (fun b ->
        let d = Ir.Builder.fresh_var b "q" in
        Ir.Builder.emit b
          (Ir.Instr.Rem { dst = d; a = Ir.Instr.Imm 5; b = Ir.Instr.Imm 0 });
        Ir.Builder.finish_block b ~label:"entry" ~term:(Ir.Block.Return None))
  in
  check_both "remainder by zero" cdfg

let test_input_errors () =
  let cdfg =
    compile {|
const int rom[2] = { 7, 8 };
int out[1];
void main() { out[0] = rom[0]; }
|}
  in
  check_both ~inputs:[ ("rom", [| 1; 2 |]) ] "input for const array" cdfg;
  check_both ~inputs:[ ("nope", [| 1 |]) ] "input for undeclared array" cdfg

(* --- undefined reads the compiled backend still checks ---

   Compilation elides the undefined-read check wherever definite
   assignment proves the register written on every path; these programs
   keep reads on the paths where it is not, written as serialised IR. *)

let ir blocks =
  Ir.Serialize.of_string
    (Printf.sprintf
       "(cdfg \"t\" (arrays (array \"in\" 2 16 mutable) (array \"out\" 2 16 \
        mutable)) (blocks %s))"
       blocks)

let inputs_of values = [ ("in", Array.of_list values) ]

let test_terminator_only_register () =
  let cdfg = ir {|(block "entry" (instrs) (term (return (var "ghost" 9 16))))|} in
  check_both "ghost return" cdfg;
  match Interp.run cdfg with
  | _ -> Alcotest.fail "read of ghost#9 succeeded"
  | exception Interp.Runtime_error m ->
    Alcotest.(check string) "message" "read of undefined variable ghost#9" m

(* [x] is written on the [then] arm only (or on both, with [both_arms]),
   and read at the join. *)
let diamond ~both_arms =
  ir
    (Printf.sprintf
       {|(block "entry" (instrs (load (var "c" 0 16) "in" (imm 0)))
           (term (branch (var "c" 0 16) "then" "else")))
         (block "then" (instrs (mov (var "x" 1 16) (imm 5))) (term (jump "join")))
         (block "else" (instrs %s) (term (jump "join")))
         (block "join" (instrs (store "out" (imm 0) (var "x" 1 16))) (term (return)))|}
       (if both_arms then {|(mov (var "x" 1 16) (imm 7))|} else ""))

let test_diamond_join_read () =
  List.iter
    (fun both_arms ->
      let cdfg = diamond ~both_arms in
      List.iter
        (fun c ->
          check_both ~inputs:(inputs_of [ c ])
            (Printf.sprintf "diamond (both arms %b, in=%d)" both_arms c)
            cdfg)
        [ 0; 1 ];
      let p = Compile.compile cdfg in
      let checked =
        match p.Compile.blocks.(3).Compile.body.(0) with
        | Compile.Store { value = Compile.Checked _; _ } -> true
        | _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "join read checked (both arms %b)" both_arms)
        (not both_arms) checked;
      Alcotest.(check bool) "x tracked" (not both_arms) p.Compile.tracked.(1))
    [ false; true ]

(* [x] is first written in the loop body and read in the header: through
   a select that skips it on the first visit, or directly. *)
let loop ~direct =
  ir
    (Printf.sprintf
       {|(block "entry"
           (instrs (mov (var "i" 0 16) (imm 0)) (mov (var "first" 1 16) (imm 1))
                   (load (var "n" 2 16) "in" (imm 0)))
           (term (jump "head")))
         (block "head"
           (instrs (select (var "y" 3 16) (var "first" 1 16) (imm 0) (var "x" 5 16))
                   %s
                   (bin lt (var "c" 4 16) (var "i" 0 16) (var "n" 2 16)))
           (term (branch (var "c" 4 16) "body" "exit")))
         (block "body"
           (instrs (bin add (var "x" 5 16) (var "i" 0 16) (imm 10))
                   (mov (var "first" 1 16) (imm 0))
                   (bin add (var "i" 0 16) (var "i" 0 16) (imm 1)))
           (term (jump "head")))
         (block "exit" (instrs (store "out" (imm 0) (var "y" 3 16))) (term (return)))|}
       (if direct then {|(bin add (var "s" 6 16) (var "x" 5 16) (imm 1))|} else ""))

let test_loop_header_read () =
  List.iter
    (fun direct ->
      List.iter
        (fun n ->
          check_both ~inputs:(inputs_of [ n ])
            (Printf.sprintf "loop (direct %b, n=%d)" direct n)
            (loop ~direct))
        [ 0; 1; 3 ])
    [ false; true ]

let test_select_and_terminator_reads () =
  let u = {|(var "u" 9 16)|} in
  let select cond t f =
    ir
      (Printf.sprintf
         {|(block "entry"
             (instrs (load (var "c" 0 16) "in" (imm 0))
                     (select (var "y" 1 16) %s %s %s)
                     (store "out" (imm 0) (var "y" 1 16)))
             (term (return)))|}
         cond t f)
  in
  let c = {|(var "c" 0 16)|} in
  List.iter
    (fun (what, cdfg) ->
      List.iter
        (fun v ->
          check_both ~inputs:(inputs_of [ v ]) (Printf.sprintf "%s, in=%d" what v) cdfg)
        [ 0; 1 ])
    [
      ("select cond", select u "(imm 1)" "(imm 2)");
      ("select true arm", select c u "(imm 2)");
      ("select false arm", select c "(imm 1)" u);
      ("select both arms", select c u u);
      ( "branch cond",
        ir
          (Printf.sprintf
             {|(block "entry" (instrs) (term (branch %s "a" "a")))
               (block "a" (instrs) (term (return)))|}
             u) );
      ( "return operand",
        ir
          (Printf.sprintf
             {|(block "entry" (instrs (load (var "c" 0 16) "in" (imm 0)))
                 (term (branch (var "c" 0 16) "a" "b")))
               (block "a" (instrs (mov %s (imm 4))) (term (jump "b")))
               (block "b" (instrs) (term (return %s)))|}
             u u) );
    ]

(* --- a poll that raises, swept across block boundaries ---

   One loop iteration costs a few units, so the k-th poll point (step
   1024 (k - 1)) lands at a different offset inside the loop's blocks for
   each k.  Each run counts its poll calls and raises on the k-th; with
   [max_steps] placed just before, at and after that poll point, the
   budget check (which the oracle runs before the poll) decides which
   exception wins and at which step. *)

exception Poll_stop of int

let polled ?max_steps ?inputs ~raise_at (run : runner) cdfg =
  let calls = ref 0 in
  let mk_poll () () =
    incr calls;
    if !calls = raise_at then raise (Poll_stop !calls)
  in
  let o = outcome ?max_steps ?inputs ~mk_poll run cdfg in
  (o, !calls)

let test_poll_raise_sweep () =
  let cdfg = compile poll_src in
  for k = 1 to 16 do
    let point = 1024 * (k - 1) in
    List.iter
      (fun max_steps ->
        let what =
          Printf.sprintf "poll raises at call %d, max_steps %s" k
            (match max_steps with Some m -> string_of_int m | None -> "none")
        in
        let tree, tree_calls = polled ?max_steps ~raise_at:k Interp.run cdfg in
        let comp, comp_calls = polled ?max_steps ~raise_at:k Exec.run cdfg in
        check_outcomes what tree comp;
        Alcotest.(check int) (what ^ ": poll calls") tree_calls comp_calls)
      (None :: List.map Option.some (List.filter (fun m -> m >= 0) [ point - 1; point; point + 1 ]))
  done

(* --- fused chains ---

   A batched block runs as one chain in which a compare feeding the
   block's branch is fused with it, and an instruction whose untracked
   result the next one reads exactly once is fused with that reader.
   These programs put every fused shape in a block of its own, with the
   temporary read again after the pair or not, and the unfused shapes
   next to them; the loops further down move every fuel, [max_steps] and
   poll boundary across every unit of a block made of fused pairs. *)

let fused_ir blocks =
  Ir.Serialize.of_string
    (Printf.sprintf
       "(cdfg \"t\" (arrays (array \"in\" 8 16 mutable) (array \"out\" 4 16 \
        mutable)) (blocks %s))"
       blocks)

let x = {|(var "x" 1 16)|}
let y = {|(var "y" 2 16)|}
let z = {|(var "z" 3 16)|}
let t = {|(var "t" 4 16)|}
let d = {|(var "d" 5 16)|}
let c = {|(var "c" 6 16)|}
let imm k = Printf.sprintf "(imm %d)" k
let bin op dst a b = Printf.sprintf "(bin %s %s %s %s)" (Ir.Types.string_of_alu_op op) dst a b
let mul dst a b = Printf.sprintf "(mul %s %s %s)" dst a b
let load dst arr index = Printf.sprintf "(load %s %S %s)" dst arr index
let store arr index value = Printf.sprintf "(store %S %s %s)" arr index value
let loads = String.concat " " [ load x "in" (imm 0); load y "in" (imm 1); load z "in" (imm 2) ]

let fused_inputs =
  [ [ 5; 3; 0; 11; 12; 13; 14; 15 ]; [ -7; 70; 1; 2; 3; 4; 5; 6 ]; [ 2; -1; 6; 0; 9; 8; 7; 6 ] ]

(* [d] is set to 0 and [x], [y], [z] are read from [in], then [instrs]
   run as one block; the next block stores [d] and, with [live], the
   temporary [t] *)
let pair_program ~live instrs =
  fused_ir
    (Printf.sprintf
       {|(block "entry" (instrs (mov %s (imm 0)) %s %s) (term (jump "obs")))
         (block "obs" (instrs %s %s) (term (return)))|}
       d loads (String.concat " " instrs) (store "out" (imm 3) d)
       (if live then store "out" (imm 2) t else ""))

let check_fused ?(inputs = fused_inputs) what cdfg =
  List.iter
    (fun values ->
      check_both ~inputs:(inputs_of values)
        (Printf.sprintf "%s, in=[%s]" what
           (String.concat ";" (List.map string_of_int values)))
        cdfg)
    inputs

let producers =
  List.concat_map
    (fun op -> [ bin op t x y; bin op t x (imm 3); bin op t (imm 3) x ])
    Ir.Types.all_alu_ops
  @ [
      mul t x y; mul t x (imm 3); mul t (imm 3) x;
      Printf.sprintf "(un neg %s %s)" t x;
      Printf.sprintf "(un not %s %s)" t x;
      Printf.sprintf "(un abs %s %s)" t x;
      Printf.sprintf "(mov %s %s)" t x;
      Printf.sprintf "(mov %s %s)" t (imm 4);
      Printf.sprintf "(select %s %s %s %s)" t x y z;
      load t "in" x;
    ]

let consumers =
  List.concat_map
    (fun op -> [ bin op d t y; bin op d t (imm 5); bin op d y t; bin op d (imm 5) t ])
    Ir.Types.all_alu_ops
  @ [
      mul d t y; mul d t (imm 5); mul d y t; mul d (imm 5) t;
      load d "in" t;
      store "out" t y; store "out" t (imm 5); store "out" y t; store "out" (imm 2) t;
    ]

let test_fused_pairs () =
  List.iter
    (fun producer ->
      List.iter
        (fun consumer ->
          List.iter
            (fun live ->
              check_fused
                (Printf.sprintf "%s then %s (live %b)" producer consumer live)
                (pair_program ~live [ producer; consumer ]))
            [ false; true ])
        consumers)
    producers

let test_fused_read_twice () =
  List.iter
    (fun consumer ->
      List.iter
        (fun live ->
          check_fused
            (Printf.sprintf "t read twice by %s (live %b)" consumer live)
            (pair_program ~live [ bin Add t x y; consumer ]))
        [ false; true ])
    [ bin Add d t t; bin Lt d t t; mul d t t; store "out" t t ]

(* The producer's checks run before the consumer's: a failing load
   feeding a store that would fail too must raise the load's message. *)
let test_fused_producer_fails_first () =
  let cdfg = pair_program ~live:false [ load t "in" x; store "out" (imm 99) t ] in
  check_fused ~inputs:[ [ 100 ]; [ -1 ]; [ 3 ] ] "failing load feeds a failing store" cdfg;
  match Exec.run ~inputs:(inputs_of [ 100 ]) cdfg with
  | _ -> Alcotest.fail "load of in[100] succeeded"
  | exception Interp.Runtime_error m ->
    Alcotest.(check string) "producer's message"
      {|array "in" index 100 out of bounds [0, 8)|} m

let test_fused_store_index () =
  List.iter
    (fun live ->
      check_fused ~inputs:[ [ 0; 1 ]; [ -20; 1 ]; [ -10; 1 ]; [ -7; 1 ] ]
        (Printf.sprintf "store index from a fused add (live %b)" live)
        (pair_program ~live [ bin Add t x (imm 10); store "out" t y ]))
    [ false; true ]

(* [x op rhs] and its branch, fused (with a producer of the left operand
   fused in too when [producer]); both arms store the compare's result,
   and the inputs take each edge. *)
let test_fused_compare_branch () =
  let branch_program instrs =
    fused_ir
      (Printf.sprintf
         {|(block "entry" (instrs %s %s) (term (branch %s "a" "b")))
           (block "a" (instrs %s %s) (term (return)))
           (block "b" (instrs %s %s) (term (return)))|}
         loads (String.concat " " instrs) c
         (store "out" (imm 0) c) (store "out" (imm 1) (imm 1))
         (store "out" (imm 0) c) (store "out" (imm 2) (imm 1)))
  in
  let inputs = List.map (fun v -> [ v; 3 ]) [ 1; 2; 3; 4; 5 ] in
  List.iter
    (fun op ->
      List.iter
        (fun instrs ->
          check_fused ~inputs (String.concat " " instrs) (branch_program instrs))
        [
          [ bin op c x y ];
          [ bin op c x (imm 3) ];
          [ bin op c (imm 3) x ];
          [ bin op c x x ];
          [ bin Add t x (imm 1); bin op c t y ];
          [ bin Add t x (imm 1); bin op c t (imm 3) ];
          [ bin Add t x (imm 1); bin op c (imm 3) t ];
          [ bin Add t x (imm 1); bin op c y t ];
          [ bin Add t x (imm 1); bin op c t t ];
          [ load t "in" x; bin op c t (imm 3) ];
        ])
    [ Ir.Types.Lt; Le; Eq; Ne; Gt; Ge ];
  check_fused ~inputs "both arms one block"
    (fused_ir
       (Printf.sprintf
          {|(block "entry" (instrs %s %s) (term (branch %s "a" "a")))
            (block "a" (instrs %s) (term (return)))|}
          loads (bin Lt c x y) c (store "out" (imm 0) c)))

(* A read that keeps its undefined-read check sits in, before and after
   fusable pairs: [u] is written only when [in[3]] is non-zero. *)
let test_fused_next_to_checked () =
  let u = {|(var "u" 7 16)|} and w = {|(var "w" 8 16)|} in
  let program instrs =
    fused_ir
      (Printf.sprintf
         {|(block "entry" (instrs (mov %s (imm 0)) (mov %s (imm 0)) %s %s)
             (term (branch %s "def" "join")))
           (block "def" (instrs (mov %s (imm 1))) (term (jump "join")))
           (block "join" (instrs %s) (term (jump "obs")))
           (block "obs" (instrs %s %s) (term (return)))|}
         d t loads (load c "in" (imm 3)) c u (String.concat " " instrs)
         (store "out" (imm 3) d) (store "out" (imm 2) t))
  in
  List.iter
    (fun instrs ->
      check_fused ~inputs:[ [ 1; 2; 0; 0 ]; [ 1; 2; 0; 1 ] ] (String.concat " " instrs)
        (program instrs))
    [
      [ bin Add t x y; bin Add d t u ];
      [ bin Add t x u; bin Add d t y ];
      [ Printf.sprintf "(mov %s %s)" w u; bin Add t x y; bin Add d t (imm 1) ];
      [ bin Add t x y; bin Add d t (imm 1); Printf.sprintf "(mov %s %s)" w u ];
      [ bin Add t x y; store "out" t u ];
      [ load t "in" x; store "out" u t ];
      [ bin Add t x (imm 1); bin Lt c t u ];
    ]

(* Loops whose body is made of fused pairs: the Mini-C loop's body has
   three fused pairs and a fused compare and branch in 11 units, the
   IR loop's three pairs and a compare and branch fused with the add
   that feeds it, in 9 units.  11 and 9 are prime to 1024, so the
   successive poll points land on every unit offset of the body. *)
let fused_loops =
  [
    ( "mini-c loop",
      11,
      compile
        {|
int in[8];
int out[2];
void main() {
  int i = 0;
  int s = 0;
  while (i < 3000) {
    s = s + in[(i + 1) & 7] * 3;
    out[i & 1] = s >> 2;
    i = i + 1;
  }
  out[0] = s;
}
|} );
    ( "ir loop",
      9,
      let i = {|(var "i" 0 16)|} and s = {|(var "s" 1 16)|} in
      let v k = Printf.sprintf {|(var "v%d" %d 16)|} k (10 + k) in
      fused_ir
        (Printf.sprintf
           {|(block "entry" (instrs (mov %s (imm 0)) (mov %s (imm 0))) (term (jump "body")))
             (block "body" (instrs %s) (term (branch %s "body" "exit")))
             (block "exit" (instrs %s) (term (return)))|}
           i s
           (String.concat " "
              [
                bin And (v 1) i (imm 7); load (v 2) "in" (v 1);
                mul (v 3) (v 2) (imm 3); bin Add s s (v 3);
                bin Ashr (v 4) s (imm 2); store "out" (imm 1) (v 4);
                bin Add i i (imm 1); bin Lt c i (imm 3000);
              ])
           c (store "out" (imm 0) s)) );
  ]

let loop_inputs = [ ("in", [| 3; -1; 4; 1; -5; 9; 2; -6 |]) ]

let test_fused_loop_budgets () =
  List.iter
    (fun (name, body, cdfg) ->
      let r = Interp.run ~inputs:loop_inputs cdfg in
      let total = r.Interp.instrs_executed + r.Interp.blocks_executed in
      let around n = List.init (body + 2) (fun k -> n + k - 1) in
      List.iter
        (fun n ->
          let what budget = Printf.sprintf "%s, %s=%d (total=%d)" name budget n total in
          check_both ~inputs:loop_inputs ~fuel:n (what "fuel") cdfg;
          check_both ~inputs:loop_inputs ~max_steps:n (what "max_steps") cdfg)
        (around 1000 @ around (total - body - 1) @ [ total + 1 ]))
    fused_loops

let test_fused_loop_poll_sweep () =
  List.iter
    (fun (name, body, cdfg) ->
      for k = 1 to body + 2 do
        let point = 1024 * (k - 1) in
        List.iter
          (fun max_steps ->
            let what =
              Printf.sprintf "%s: poll raises at call %d, max_steps %s" name k
                (match max_steps with Some m -> string_of_int m | None -> "none")
            in
            let inputs = loop_inputs in
            let tree, tree_calls = polled ?max_steps ~inputs ~raise_at:k Interp.run cdfg in
            let comp, comp_calls = polled ?max_steps ~inputs ~raise_at:k Exec.run cdfg in
            check_outcomes what tree comp;
            Alcotest.(check int) (what ^ ": poll calls") tree_calls comp_calls)
          (None :: List.map Option.some (List.filter (fun m -> m >= 0) [ point - 1; point; point + 1 ]))
      done)
    fused_loops

let suite =
  List.map
    (fun ((name, _, _) as app) ->
      Alcotest.test_case ("app " ^ name) `Quick (test_app app))
    apps
  @ [
      Alcotest.test_case "bytecode examples" `Quick test_bytecode_examples;
      Alcotest.test_case "compiled program reuse" `Quick test_compile_reuse;
      Alcotest.test_case "fuel boundary" `Quick test_fuel_boundary;
      Alcotest.test_case "fuel message" `Quick test_fuel_exhaustion_message;
      Alcotest.test_case "max_steps boundary" `Quick test_max_steps_boundary;
      Alcotest.test_case "poll cadence" `Quick test_poll_cadence;
      Alcotest.test_case "poll raises" `Quick test_poll_raises;
      Alcotest.test_case "division by zero" `Quick test_division_by_zero;
      Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
      Alcotest.test_case "negative index" `Quick test_negative_index;
      Alcotest.test_case "undefined read" `Quick test_undefined_read;
      Alcotest.test_case "undeclared array" `Quick test_undeclared_array;
      Alcotest.test_case "store to const" `Quick test_store_to_const;
      Alcotest.test_case "remainder by zero" `Quick test_remainder_by_zero;
      Alcotest.test_case "input errors" `Quick test_input_errors;
      Alcotest.test_case "terminator-only register" `Quick
        test_terminator_only_register;
      Alcotest.test_case "diamond join read" `Quick test_diamond_join_read;
      Alcotest.test_case "loop header read" `Quick test_loop_header_read;
      Alcotest.test_case "select and terminator reads" `Quick
        test_select_and_terminator_reads;
      Alcotest.test_case "poll raise sweep" `Quick test_poll_raise_sweep;
      Alcotest.test_case "fused pairs" `Quick test_fused_pairs;
      Alcotest.test_case "fused pair read twice" `Quick test_fused_read_twice;
      Alcotest.test_case "fused producer fails first" `Quick
        test_fused_producer_fails_first;
      Alcotest.test_case "fused store index" `Quick test_fused_store_index;
      Alcotest.test_case "fused compare and branch" `Quick test_fused_compare_branch;
      Alcotest.test_case "fused pairs next to checked reads" `Quick
        test_fused_next_to_checked;
      Alcotest.test_case "fused loop budgets" `Quick test_fused_loop_budgets;
      Alcotest.test_case "fused loop poll sweep" `Quick test_fused_loop_poll_sweep;
    ]
