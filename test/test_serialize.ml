(* Unit tests for CDFG serialisation. *)

module Ir = Hypar_ir
module Driver = Hypar_minic.Driver
module Interp = Hypar_profiling.Interp

let roundtrip cdfg = Ir.Serialize.of_string (Ir.Serialize.to_string cdfg)

let blocks_equal c1 c2 =
  Array.to_list (Ir.Cfg.blocks (Ir.Cdfg.cfg c1))
  = Array.to_list (Ir.Cfg.blocks (Ir.Cdfg.cfg c2))

let arrays_equal c1 c2 = Ir.Cdfg.arrays c1 = Ir.Cdfg.arrays c2

let test_roundtrip_small () =
  let cdfg = Driver.compile_exn {|
const int rom[3] = { 5, -6, 7 };
int out[2];
int g = 9;
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 3; i++) {
    s += rom[i] * g;
  }
  out[0] = s;
  out[1] = s < 0 ? 0 - s : s;
}
|} in
  let back = roundtrip cdfg in
  Alcotest.(check bool) "blocks identical" true (blocks_equal cdfg back);
  Alcotest.(check bool) "arrays identical" true (arrays_equal cdfg back);
  Alcotest.(check string) "name preserved" (Ir.Cdfg.name cdfg) (Ir.Cdfg.name back)

let test_roundtrip_preserves_semantics () =
  let cdfg = Driver.compile_exn (Hypar_fuzzgen.Gen.source 77) in
  Outputs.check "same result after reload" cdfg (roundtrip cdfg)

let test_roundtrip_apps () =
  List.iter
    (fun (name, cdfg) ->
      let back = roundtrip cdfg in
      Alcotest.(check bool) (name ^ " blocks") true (blocks_equal cdfg back);
      Alcotest.(check bool) (name ^ " arrays") true (arrays_equal cdfg back))
    [
      ("ofdm", (Hypar_apps.Ofdm.prepared ()).Hypar_core.Flow.cdfg);
      ("sobel", (Hypar_apps.Sobel.prepared ()).Hypar_core.Flow.cdfg);
    ]

let test_special_label_characters () =
  (* labels and names with quotes/backslashes survive *)
  let b =
    Ir.Block.make ~label:{|odd "label"\x|} ~instrs:[]
      ~term:(Ir.Block.Return None)
  in
  let cdfg = Ir.Cdfg.make ~name:{|we"ird|} ~arrays:[] (Ir.Cfg.of_blocks [ b ]) in
  let back = roundtrip cdfg in
  Alcotest.(check bool) "escaped round trip" true (blocks_equal cdfg back)

let test_parse_errors () =
  let raises s =
    match Ir.Serialize.of_string s with
    | exception Ir.Serialize.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  raises "";
  raises "(cdfg";
  raises "(not-a-cdfg)";
  raises "(cdfg \"x\" (arrays) (blocks (block)))";
  raises "(cdfg \"x\" (arrays (array)) (blocks))"

let test_all_instruction_forms () =
  (* one of each instruction kind survives the round trip *)
  let b = Ir.Builder.create () in
  Ir.Builder.declare_array ~init:[| 1; 2 |] ~is_const:true b "rom" 2;
  Ir.Builder.declare_array b "ram" 4;
  let x = Ir.Builder.fresh_var b "x" in
  Ir.Builder.emit b (Ir.Instr.Mov { dst = x; src = Imm 3 });
  let a1 = Ir.Builder.bin b Ir.Types.Ashr "a" (Ir.Builder.var x) (Ir.Builder.imm 1) in
  let m = Ir.Builder.mul b "m" (Ir.Builder.var a1) (Ir.Builder.var x) in
  let u = Ir.Builder.un b Ir.Types.Abs "u" (Ir.Builder.var m) in
  Ir.Builder.emit b
    (Ir.Instr.Div { dst = Ir.Builder.fresh_var b "d"; a = Var u; b = Imm 2 });
  Ir.Builder.emit b
    (Ir.Instr.Rem { dst = Ir.Builder.fresh_var b "r"; a = Var u; b = Imm 3 });
  let sel = Ir.Builder.fresh_var b "sel" in
  Ir.Builder.emit b
    (Ir.Instr.Select { dst = sel; cond = Var x; if_true = Var u; if_false = Imm 0 });
  let ld = Ir.Builder.load b "ld" ~arr:"rom" (Ir.Builder.imm 1) in
  Ir.Builder.store b ~arr:"ram" (Ir.Builder.imm 0) (Ir.Builder.var ld);
  Ir.Builder.finish_block b ~label:"entry"
    ~term:(Ir.Block.Branch { cond = Var sel; if_true = "entry"; if_false = "done" });
  Ir.Builder.finish_block b ~label:"done" ~term:(Ir.Block.Return (Some (Imm 0)));
  let cdfg = Ir.Builder.cdfg ~name:"forms" b in
  let back = roundtrip cdfg in
  Alcotest.(check bool) "all forms round trip" true (blocks_equal cdfg back)

(* ---- the direct writer against the tree writer ------------------------ *)

(* byte-identical to the oracle, and reading the bytes back writes the
   same bytes and the same blocks, arrays and name *)
let check_writer label cdfg =
  let s = Ir.Serialize.to_string cdfg in
  let oracle = Serialize_reference.to_string cdfg in
  if s <> oracle then
    QCheck.Test.fail_reportf "%s: writer and tree writer differ:\n%s\n--- vs ---\n%s"
      label s oracle;
  let back = Ir.Serialize.of_string s in
  if Ir.Serialize.to_string back <> s then
    QCheck.Test.fail_reportf "%s: re-serialising the parsed CDFG changes it" label;
  if not (blocks_equal cdfg back && arrays_equal cdfg back)
     || Ir.Cdfg.name back <> Ir.Cdfg.name cdfg
  then QCheck.Test.fail_reportf "%s: the round trip changes the CDFG" label;
  true

let prop_writer_fuzzgen =
  QCheck.Test.make ~name:"serialize: writer equals the tree writer (fuzzgen)"
    ~count:40
    (QCheck.make ~print:(Printf.sprintf "fuzzgen seed %d")
       QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let source = Hypar_fuzzgen.Gen.source seed in
      check_writer "raw" (Driver.compile_exn ~name:"fz" ~simplify:false source)
      && check_writer "optimised" (Driver.compile_exn ~name:"fz" source))

(* names with quotes, backslashes and the reader's delimiters; integers
   at both ends of the range and around zero *)
let hand_built_arb =
  let open QCheck.Gen in
  let name =
    string_size ~gen:(oneofl [ '"'; '\\'; ' '; '('; ')'; 'a'; 'z'; '_'; '0' ])
      (int_range 0 6)
  in
  let value =
    frequency
      [ (2, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1; -10; 10 ]);
        (3, int_range (-1000) 1000); (2, int) ]
  in
  QCheck.make
    ~print:(fun (names, values) ->
      Printf.sprintf "names %s, values %s"
        (String.concat " " (List.map (Printf.sprintf "%S") names))
        (String.concat " " (List.map string_of_int values)))
    (pair (list_repeat 5 name) (list_repeat 8 value))

let hand_built (names, values) =
  let nth l i = List.nth l (i mod List.length l) in
  let name = nth names and value = nth values in
  let var i = { Ir.Instr.vname = name i; vid = value i; vwidth = value (i + 1) } in
  (* distinct labels, whatever the drawn names *)
  let l0 = "0" ^ name 0 and l1 = "1" ^ name 1 and l2 = "2" ^ name 2 in
  let entry =
    Ir.Block.make ~label:l0
      ~instrs:
        [ Ir.Instr.Mov { dst = var 2; src = Imm (value 3) };
          Ir.Instr.Bin { dst = var 4; op = Ir.Types.Sub; a = Imm (value 5); b = Var (var 6) };
          Ir.Instr.Mul { dst = var 5; a = Var (var 3); b = Imm (value 4) };
          Ir.Instr.Div { dst = var 6; a = Imm (value 6); b = Var (var 0) };
          Ir.Instr.Rem { dst = var 0; a = Imm (value 7); b = Imm (value 2) };
          Ir.Instr.Un { dst = var 7; op = Ir.Types.Neg; a = Imm (value 0) };
          Ir.Instr.Select
            { dst = var 3; cond = Var (var 1); if_true = Imm (value 1); if_false = Var (var 2) };
          Ir.Instr.Load { dst = var 1; arr = name 2; index = Imm (value 2) };
          Ir.Instr.Store { arr = name 3; index = Imm (value 4); value = Imm (value 6) } ]
      ~term:(Ir.Block.Branch { cond = Imm (value 7); if_true = l1; if_false = l2 })
  in
  let jump = Ir.Block.make ~label:l1 ~instrs:[] ~term:(Ir.Block.Jump l2) in
  let exit = Ir.Block.make ~label:l2 ~instrs:[] ~term:(Ir.Block.Return (Some (Imm (value 1)))) in
  let bare = Ir.Block.make ~label:(l2 ^ "r") ~instrs:[] ~term:(Ir.Block.Return None) in
  Ir.Cdfg.make ~name:(name 4)
    ~arrays:
      [ { Ir.Cdfg.aname = name 2; size = value 0; init = Some (Array.of_list values);
          is_const = true; elem_width = value 3 };
        { aname = name 3; size = value 5; init = None; is_const = false; elem_width = 32 } ]
    (Ir.Cfg.of_blocks [ entry; jump; exit; bare ])

let prop_writer_hand_built =
  QCheck.Test.make
    ~name:"serialize: writer equals the tree writer (quotes, backslashes, min_int/max_int)"
    ~count:300 hand_built_arb
    (fun c -> check_writer "hand-built" (hand_built c))

let test_writer_extremes () =
  ignore
    (check_writer "extremes"
       (hand_built ([ {|"|}; {|\|}; {|a"b\c|}; ""; "( )" ], [ min_int; max_int; -7; 0 ])))

let suite =
  [
    Alcotest.test_case "round trip (small)" `Quick test_roundtrip_small;
    Alcotest.test_case "round trip semantics" `Quick test_roundtrip_preserves_semantics;
    Alcotest.test_case "round trip (apps)" `Quick test_roundtrip_apps;
    Alcotest.test_case "special characters" `Quick test_special_label_characters;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "all instruction forms" `Quick test_all_instruction_forms;
    Alcotest.test_case "writer at the integer extremes" `Quick test_writer_extremes;
    QCheck_alcotest.to_alcotest prop_writer_fuzzgen;
    QCheck_alcotest.to_alcotest prop_writer_hand_built;
  ]
