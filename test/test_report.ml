(* Unit tests for the report and result-table renderers, and DOT export. *)

module Ir = Hypar_ir
module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform

let prepared = lazy (Flow.prepare ~name:"loopy" {|
int out[1];
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 2000; i++) {
    s += i * i;
  }
  out[0] = s;
}
|})

let result = lazy (
  let p = Lazy.force prepared in
  Flow.partition (List.hd (Platform.paper_configs ())) ~timing_constraint:10_000 p)

let contains = Str_contains.contains

let test_markdown_sections () =
  let md = Hypar_core.Report.markdown (Lazy.force result) in
  List.iter
    (fun s -> Alcotest.(check bool) ("contains " ^ s) true (contains md s))
    [
      "# Partitioning report — loopy";
      "## Kernel analysis (Eq. 1)";
      "## Engine trace (Eq. 2 after each movement)";
      "## Final assignment";
      "timing constraint: 10000 FPGA cycles";
    ]

let test_markdown_assignment_consistency () =
  let r = Lazy.force result in
  let md = Hypar_core.Report.markdown r in
  (* every moved block appears with side CGC *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "BB%d reported on CGC" b)
        true
        (contains md (Printf.sprintf "| %d | CGC |" b)))
    r.Engine.moved

let test_result_table_columns () =
  let p = Lazy.force prepared in
  let runs =
    List.map
      (fun pl -> Flow.partition pl ~timing_constraint:10_000 p)
      (Platform.paper_configs ())
  in
  let table = Hypar_core.Result_table.render ~title:"t" runs in
  List.iter
    (fun s -> Alcotest.(check bool) ("row " ^ s) true (contains table s))
    [ "Initial cycles"; "Cycles in CGC"; "BB no."; "Final cycles";
      "% cycles reduction"; "Status"; "two 2x2"; "three 2x2" ]

(* every column is as wide as its widest cell, so every row's "|"
   separators sit in the same columns, whatever the cells hold (the
   statuses and moved sets here differ in length) *)
let test_result_table_aligned () =
  let p = Lazy.force prepared in
  let runs =
    List.concat_map
      (fun pl ->
        List.map
          (fun timing_constraint -> Flow.partition pl ~timing_constraint p)
          [ 1; 10_000; 100_000_000 ])
      (Platform.paper_configs ())
  in
  let separators line =
    List.init (String.length line) Fun.id
    |> List.filter (fun i -> line.[i] = '|')
  in
  let table = Hypar_core.Result_table.render ~title:"t" runs in
  match String.split_on_char '\n' table with
  | _title :: first :: rows ->
    let expected = separators first in
    Alcotest.(check int) "one separator per run" (List.length runs)
      (List.length expected);
    List.iter
      (fun row ->
        if row <> "" then
          Alcotest.(check (list int)) ("separators of " ^ row) expected
            (separators row))
      rows
  | _ -> Alcotest.fail "no rows"

let test_moved_blocks_string () =
  let r = Lazy.force result in
  let s = Hypar_core.Result_table.render ~title:"t" [ r ] in
  Alcotest.(check bool) "BB no. lists the moved blocks in move order" true
    (contains s (String.concat ", " (List.map string_of_int r.Engine.moved)))

let test_dot_export () =
  let p = Lazy.force prepared in
  let dot = Ir.Dot.cfg_to_dot p.Flow.cdfg in
  Alcotest.(check bool) "digraph" true (contains dot "digraph cfg");
  Alcotest.(check bool) "has edges" true (contains dot "->");
  let highlighted = Ir.Dot.cfg_to_dot ~highlight:[ 1 ] p.Flow.cdfg in
  Alcotest.(check bool) "highlight style" true (contains highlighted "filled");
  let dfg = Ir.Cdfg.dfg p.Flow.cdfg 1 in
  let ddot = Ir.Dot.dfg_to_dot ~title:"BB1" dfg in
  Alcotest.(check bool) "dfg digraph" true (contains ddot "digraph \"BB1\"");
  Alcotest.(check bool) "ranks by level" true (contains ddot "(L1)")

let test_gantt_renders () =
  let p = Lazy.force prepared in
  let cgc = Hypar_coarsegrain.Cgc.two_by_two 2 in
  let dfg = Ir.Cdfg.dfg p.Flow.cdfg 1 in
  match Hypar_coarsegrain.Coarse_map.map_dfg cgc dfg with
  | Some m ->
    let gantt =
      Hypar_coarsegrain.Binding.render_gantt cgc dfg
        m.Hypar_coarsegrain.Coarse_map.schedule
        m.Hypar_coarsegrain.Coarse_map.binding
    in
    Alcotest.(check bool) "has cycle header" true (contains gantt "cycle:");
    Alcotest.(check bool) "has node rows" true (contains gantt "c0[0,0]");
    Alcotest.(check bool) "has mem rows" true (contains gantt "mem0");
    Alcotest.(check bool) "shows a mul" true (contains gantt "mul")
  | None -> Alcotest.fail "expected mapping"

let suite =
  [
    Alcotest.test_case "markdown sections" `Quick test_markdown_sections;
    Alcotest.test_case "assignment consistency" `Quick test_markdown_assignment_consistency;
    Alcotest.test_case "result table" `Quick test_result_table_columns;
    Alcotest.test_case "result table aligned" `Quick test_result_table_aligned;
    Alcotest.test_case "moved blocks string" `Quick test_moved_blocks_string;
    Alcotest.test_case "DOT export" `Quick test_dot_export;
    Alcotest.test_case "Gantt rendering" `Quick test_gantt_renders;
  ]
