module Jsonv = Hypar_obs.Jsonv
module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform

type row = {
  app : string;
  table : int;
  final_cycles : int list;
  paper_reduction_percent : float list;
}

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let fail what = failwith (Printf.sprintf "%s: bad or missing %s" path what) in
  let get what = function Some x -> x | None -> fail what in
  let field name v = get name (Jsonv.member name v) in
  let list name f v =
    List.map (fun x -> get name (f x)) (get name (Jsonv.to_list (field name v)))
  in
  let num = function Jsonv.Num f -> Some f | _ -> None in
  let doc = match Jsonv.parse text with Ok v -> v | Error e -> fail e in
  List.map
    (fun t ->
      {
        app = get "app" (Jsonv.to_str (field "app" t));
        table = get "table" (Jsonv.to_int (field "table" t));
        final_cycles = list "final_cycles" Jsonv.to_int t;
        paper_reduction_percent = list "paper_reduction_percent" num t;
      })
    (list "tables" Option.some doc)

type outcome = { mismatches : string list; report : string list }

let label (pl : Platform.t) =
  Printf.sprintf "A_FPGA=%d %s" pl.fpga.area
    (Hypar_coarsegrain.Cgc.describe pl.cgc)

let check_row row =
  let app =
    match row.app with
    | "ofdm" -> Apps.ofdm ()
    | "jpeg" -> Apps.jpeg ()
    | other -> failwith ("expected file names an unknown app: " ^ other)
  in
  let p = Flow.prepare ~name:app.name ~inputs:app.inputs app.source in
  let platforms = Platform.paper_configs () in
  let runs =
    List.map
      (fun pl -> Flow.partition pl ~timing_constraint:app.timing_constraint p)
      platforms
  in
  let finals = List.map (fun (r : Engine.t) -> r.final.t_total) runs in
  let fmt l = String.concat "/" (List.map string_of_int l) in
  let mismatches =
    (if app.matches_reference p.interp then []
     else [ Printf.sprintf "Table %d: %s outputs differ from the reference model" row.table row.app ])
    @
    if finals = row.final_cycles then []
    else
      [
        Printf.sprintf "Table %d: %s final cycles %s, expected %s" row.table row.app
          (fmt finals) (fmt row.final_cycles);
      ]
  in
  let report =
    List.map2
      (fun (pl, r) paper ->
        let sim = Engine.reduction_percent r in
        Printf.sprintf "Table %d %-5s %-22s simulated %5.1f%%  paper %5.1f%%  model error %+6.1f pp"
          row.table row.app (label pl) sim paper (sim -. paper))
      (List.combine platforms runs) row.paper_reduction_percent
  in
  { mismatches; report }

let check rows =
  let outcomes = List.map check_row rows in
  {
    mismatches = List.concat_map (fun o -> o.mismatches) outcomes;
    report =
      "model error against the paper's published reductions (accuracy of the \
       simulation, not a speed number):"
      :: List.concat_map (fun o -> o.report) outcomes;
  }
