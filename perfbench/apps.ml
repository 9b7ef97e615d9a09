(* The four applications of the paper flow, each with its inputs and a
   check of the program's outputs against the app's bit-exact OCaml
   reference model (computed once, when the record is built). *)

module Interp = Hypar_profiling.Interp
module A = Hypar_apps

type t = {
  name : string;
  source : string;
  inputs : (string * int array) list;
  timing_constraint : int;
  matches_reference : Interp.result -> bool;
}

let ofdm ?seed () =
  let inputs = A.Ofdm.inputs ?seed () in
  let re, im = A.Ofdm.golden inputs in
  {
    name = "ofdm";
    source = A.Ofdm.source;
    inputs;
    timing_constraint = A.Ofdm.timing_constraint;
    matches_reference =
      (fun r -> Interp.array_exn r "out_re" = re && Interp.array_exn r "out_im" = im);
  }

let jpeg ?seed () =
  let inputs = A.Jpeg.inputs ?seed () in
  let g = A.Jpeg.golden inputs in
  {
    name = "jpeg";
    source = A.Jpeg.source;
    inputs;
    timing_constraint = A.Jpeg.timing_constraint;
    matches_reference =
      (fun r ->
        let out = Interp.array_exn r "out_bytes" in
        Array.sub out 0 g.A.Jpeg.len = Array.sub g.A.Jpeg.bytes 0 g.A.Jpeg.len);
  }

let sobel ?seed () =
  let inputs = A.Sobel.inputs ?seed () in
  let edges = A.Sobel.golden inputs in
  {
    name = "sobel";
    source = A.Sobel.source;
    inputs;
    timing_constraint = A.Sobel.timing_constraint;
    matches_reference = (fun r -> Interp.array_exn r "edges" = edges);
  }

let adpcm ?seed () =
  let inputs = A.Adpcm.inputs ?seed () in
  let g = A.Adpcm.golden inputs in
  {
    name = "adpcm";
    source = A.Adpcm.source;
    inputs;
    timing_constraint = A.Adpcm.timing_constraint;
    matches_reference =
      (fun r ->
        let state = Interp.array_exn r "state" in
        Interp.array_exn r "adpcm" = g.A.Adpcm.codes
        && state.(0) = g.A.Adpcm.final_predicted
        && state.(1) = g.A.Adpcm.final_index);
  }

(* The apps' own generators take any int seed; drawing one per app from
   the benchmark seed keeps the input sets independent. *)
let draw_seed st = 1 + Random.State.int st 1_000_000

let seeded seed =
  let st = Random.State.make [| seed |] in
  List.map
    (fun (make : ?seed:int -> unit -> t) -> make ~seed:(draw_seed st) ())
    [ ofdm; jpeg; sobel; adpcm ]
