let moved_blocks_string (r : Engine.t) =
  String.concat ", " (List.map string_of_int r.Engine.moved)

let render ~title (runs : Engine.t list) =
  let cells f = List.map f runs in
  let ints f = cells (fun r -> string_of_int (f r)) in
  let rows =
    [
      ( "A_FPGA",
        ints (fun r ->
            r.Engine.platform.Platform.fpga.Hypar_finegrain.Fpga.area) );
      ( "CGCs no.",
        cells (fun r ->
            Hypar_coarsegrain.Cgc.describe r.Engine.platform.Platform.cgc) );
      ("Initial cycles", ints (fun r -> r.Engine.initial.Engine.t_total));
      ("Cycles in CGC", ints (fun r -> r.Engine.final.Engine.t_coarse_cgc));
      ("BB no.", cells moved_blocks_string);
      ("Final cycles", ints (fun r -> r.Engine.final.Engine.t_total));
      ( "% cycles reduction",
        cells (fun r -> Printf.sprintf "%.1f" (Engine.reduction_percent r)) );
      ("Status", cells (fun r -> Engine.status_label r.Engine.status));
    ]
  in
  (* every column one space wider than its widest cell, so the
     separators of all rows line up *)
  let width column =
    1 + List.fold_left (fun w c -> max w (String.length c)) 0 column
  in
  let label_width = width (List.map fst rows) in
  let widths =
    List.mapi
      (fun i _ -> width (List.map (fun (_, cs) -> List.nth cs i) rows))
      runs
  in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let buf = Buffer.create 1024 in
  (match runs with
  | r :: _ ->
    Buffer.add_string buf
      (Printf.sprintf "%s (timing constraint %d cycles)\n" title
         r.Engine.timing_constraint)
  | [] -> Buffer.add_string buf (title ^ "\n"));
  List.iter
    (fun (label, cs) ->
      Buffer.add_string buf (pad label_width label);
      List.iter2 (fun w c -> Buffer.add_string buf ("| " ^ pad w c)) widths cs;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
