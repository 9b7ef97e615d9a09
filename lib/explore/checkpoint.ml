module Engine = Hypar_core.Engine
module Journal = Hypar_resilience.Journal

let header = "hypar-explore-checkpoint v1"

(* Tab-separated fields; free-text fields (CGC description, error
   message) escape tabs and backslashes so any message round-trips. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\t' -> Buffer.add_string buf "\\t"
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '\\' && i + 1 < n then begin
        (match s.[i + 1] with
        | 't' -> Buffer.add_char buf '\t'
        | c -> Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let times_fields (t : Engine.times) =
  List.map string_of_int
    [ t.Engine.t_fpga; t.t_coarse_cgc; t.t_coarse; t.t_comm; t.t_total ]

let encode ~key outcome =
  let fields =
    match outcome with
    | Error msg -> [ "err"; escape key; escape msg ]
    | Ok (m : Eval.metrics) ->
      [ "ok"; escape key; escape m.Eval.cgc_desc ]
      @ times_fields m.Eval.initial @ times_fields m.Eval.final
      @ [
          string_of_int m.Eval.final.Engine.t_coarse_cgc;
          String.concat "," (List.map string_of_int m.Eval.moved);
          string_of_int m.Eval.skipped;
          Engine.status_key m.Eval.status;
          string_of_int m.Eval.energy;
        ]
  in
  String.concat "\t" fields

let times_of = function
  | [ a; b; c; d; e ] ->
    Option.bind (int_of_string_opt a) @@ fun t_fpga ->
    Option.bind (int_of_string_opt b) @@ fun t_coarse_cgc ->
    Option.bind (int_of_string_opt c) @@ fun t_coarse ->
    Option.bind (int_of_string_opt d) @@ fun t_comm ->
    Option.bind (int_of_string_opt e) @@ fun t_total ->
    Some { Engine.t_fpga; t_coarse_cgc; t_coarse; t_comm; t_total }
  | _ -> None

let moved_of s =
  if s = "" then Some []
  else
    let parts = String.split_on_char ',' s in
    let ints = List.filter_map int_of_string_opt parts in
    if List.length ints = List.length parts then Some ints else None

let decode line =
  match String.split_on_char '\t' line with
  | [ "err"; key; msg ] -> Some (unescape key, Error (unescape msg))
  | "ok" :: key :: cgc_desc :: i1 :: i2 :: i3 :: i4 :: i5 :: f1 :: f2 :: f3
    :: f4 :: f5 :: [ coarse; moved; skipped; status; energy ] ->
    Option.bind (times_of [ i1; i2; i3; i4; i5 ]) @@ fun initial ->
    Option.bind (times_of [ f1; f2; f3; f4; f5 ]) @@ fun final ->
    (* the "Cycles in CGC" column must repeat the final [t_coarse_cgc] *)
    if coarse <> string_of_int final.Engine.t_coarse_cgc then None
    else
      Option.bind (moved_of moved) @@ fun moved ->
      Option.bind (int_of_string_opt skipped) @@ fun skipped ->
      Option.bind (Engine.status_of_key status) @@ fun status ->
      Option.bind (int_of_string_opt energy) @@ fun energy ->
      (* [met] and [reduction] are derived rather than serialised, so no
         float ever round-trips through text *)
      Some
        ( unescape key,
          Ok
            {
              Eval.cgc_desc = unescape cgc_desc;
              initial;
              final;
              moved;
              skipped;
              status;
              met = Engine.status_met status;
              reduction =
                Engine.reduction_of_totals ~initial:initial.Engine.t_total
                  ~final:final.Engine.t_total;
              energy;
            } )
  | _ -> None

let load path =
  match Journal.load ~header path with
  | Error _ as e -> e
  | Ok entries -> Ok (List.filter_map decode entries)
