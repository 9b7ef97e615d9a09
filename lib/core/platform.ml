module Fpga = Hypar_finegrain.Fpga
module Cgc = Hypar_coarsegrain.Cgc

type t = {
  name : string;
  fpga : Fpga.t;
  cgc : Cgc.t;
  cgc_health : Cgc.health option;
  clock_ratio : int;
  comm : Comm.model;
}

let make ?name ?(clock_ratio = 3) ?(comm = Comm.default) ?cgc_health ~fpga ~cgc
    () =
  if clock_ratio <= 0 then invalid_arg "Platform.make: clock_ratio must be positive";
  (match cgc_health with
  | Some h when Array.length h.Cgc.col_rows <> Cgc.chains cgc ->
    invalid_arg "Platform.make: cgc_health does not match the CGC geometry"
  | _ -> ());
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "A_FPGA=%d, %s CGCs" fpga.Fpga.area (Cgc.describe cgc)
  in
  { name; fpga; cgc; cgc_health; clock_ratio; comm }

let degraded t =
  match t.cgc_health with
  | Some h when not (Cgc.healthy t.cgc h) -> true
  | Some _ | None -> false

let of_geometry ~area ~cgcs ~rows ~cols ~clock_ratio =
  make ~clock_ratio ~fpga:(Fpga.make ~area ())
    ~cgc:(Cgc.make ~cgcs ~rows ~cols ())
    ()

let paper_configs () =
  let mk area k =
    make ~fpga:(Fpga.make ~area ()) ~cgc:(Cgc.two_by_two k) ()
  in
  [ mk 1500 2; mk 1500 3; mk 5000 2; mk 5000 3 ]

let cgc_to_fpga_cycles t cgc_cycles =
  (cgc_cycles + t.clock_ratio - 1) / t.clock_ratio

let pp ppf t =
  Format.fprintf ppf "platform %s: %a, %a, T_FPGA=%d*T_CGC" t.name Fpga.pp
    t.fpga Cgc.pp t.cgc t.clock_ratio
