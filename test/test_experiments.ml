(* EXPERIMENTS.md quotes the measured Table 2 and Table 3 figures from
   the pinned bench output in test/paper.t/run.t: every figure in the
   "measured" column of those two tables must occur in the matching
   section of that output.  A figure written as [1 735e3] stands for
   the printed value rounded to thousands. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* from either cwd: the test directory (dune runtest) or the project
   root (dune exec test/main.exe) *)
let find candidates = List.find Sys.file_exists candidates
let experiments () = read_file (find [ "../EXPERIMENTS.md"; "EXPERIMENTS.md" ])
let pinned () = read_file (find [ "paper.t/run.t"; "test/paper.t/run.t" ])

let contains s sub =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

(* the lines from the first one containing [start] up to the next one
   starting with [stop] *)
let section ~start ~stop lines =
  let rec skip = function
    | [] -> Alcotest.failf "no section %S" start
    | l :: rest -> if contains l start then take [ l ] rest else skip rest
  and take acc = function
    | l :: rest when not (String.starts_with ~prefix:stop (String.trim l)) ->
      take (l :: acc) rest
    | _ -> List.rev acc
  in
  skip lines

(* the "measured" cell of every data row of a markdown table *)
let measured_cells lines =
  List.filter_map
    (fun l ->
      match String.split_on_char '|' l with
      | [ ""; row; _paper; measured; "" ]
        when String.trim row <> "row" && not (String.starts_with ~prefix:"---" (String.trim row))
        ->
        Some (String.trim row, String.trim measured)
      | _ -> None)
    lines

let all_matches re s =
  let rec go pos acc =
    match Str.search_forward re s pos with
    | i -> go (i + max 1 (String.length (Str.matched_string s))) (Str.matched_string s :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

(* a figure: digits grouped by single spaces, an optional fraction, and
   an optional thousands suffix *)
let figure = Str.regexp {|[0-9]+\( [0-9][0-9][0-9]\)*\(\.[0-9]+\)?\(e3\)?|}
let number = Str.regexp {|[0-9]+\(\.[0-9]+\)?|}
let id_list = Str.regexp {|[0-9]+\(, [0-9]+\)+|}

let check_table ~doc_title ~output_title =
  let doc = String.split_on_char '\n' (experiments ()) in
  let out = String.concat "\n" (section ~start:output_title ~stop:"======" (String.split_on_char '\n' (pinned ()))) in
  let printed = all_matches number out in
  let cells = measured_cells (section ~start:doc_title ~stop:"## " doc) in
  if cells = [] then Alcotest.failf "%s: no measured rows" doc_title;
  List.iter
    (fun (row, cell) ->
      List.iter
        (fun f ->
          let digits = Str.global_replace (Str.regexp " ") "" f in
          let found =
            if String.ends_with ~suffix:"e3" digits then
              let thousands = int_of_string (String.sub digits 0 (String.length digits - 2)) in
              List.exists
                (fun p ->
                  match int_of_string_opt p with
                  | Some n -> (n + 500) / 1000 = thousands
                  | None -> false)
                printed
            else List.mem digits printed
          in
          if not found then
            Alcotest.failf "%s, row %S: %s is not in the pinned output" doc_title row f)
        (all_matches figure cell);
      List.iter
        (fun ids ->
          if not (contains out ids) then
            Alcotest.failf "%s, row %S: %s is not in the pinned output" doc_title row ids)
        (all_matches id_list cell))
    cells

let test_table2 () =
  check_table ~doc_title:"## Table 2" ~output_title:"Table 2 — OFDM partitioning"

let test_table3 () =
  check_table ~doc_title:"## Table 3" ~output_title:"Table 3 — JPEG partitioning"

let suite =
  [
    Alcotest.test_case "Table 2 figures are pinned output" `Quick test_table2;
    Alcotest.test_case "Table 3 figures are pinned output" `Quick test_table3;
  ]
