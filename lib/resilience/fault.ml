type unit_kind = Mult | Alu | Both

type fault =
  | Dead_node of { cgc : int; row : int; col : int; unit_kind : unit_kind }
  | Dead_cgc of int
  | Area_loss of [ `Percent of int | `Units of int ]
  | Comm_slowdown of int
  | Transient of { permille : int; max_failures : int }

type spec = { seed : int; faults : fault list }

let unit_kind_string = function Mult -> "mult" | Alu -> "alu" | Both -> "both"

let fault_string = function
  | Dead_node { cgc; row; col; unit_kind } ->
    Printf.sprintf "dead-node %d %d %d %s" cgc row col
      (unit_kind_string unit_kind)
  | Dead_cgc k -> Printf.sprintf "dead-cgc %d" k
  | Area_loss (`Percent p) -> Printf.sprintf "area-loss %d%%" p
  | Area_loss (`Units u) -> Printf.sprintf "area-loss %d" u
  | Comm_slowdown pct -> Printf.sprintf "comm-slowdown %d" pct
  | Transient { permille; max_failures } ->
    Printf.sprintf "transient %d %d" permille max_failures

let transient spec =
  List.find_map
    (function
      | Transient { permille; max_failures } -> Some (permille, max_failures)
      | _ -> None)
    spec.faults

let hash parts =
  let h = ref 0x811c9dc5 in
  let mix byte = h := (!h lxor byte) * 0x01000193 land 0x3FFFFFFF in
  List.iter
    (function
      | `Int n ->
        mix (n land 0xff);
        mix ((n lsr 8) land 0xff);
        mix ((n lsr 16) land 0xff);
        mix ((n lsr 24) land 0xff)
      | `Str s -> String.iter (fun c -> mix (Char.code c)) s)
    parts;
  !h

(* Hashing the seed, the point key and the attempt number makes
   transient failures a pure function of (spec, point, attempt), so a
   re-run — and a resumed run — sees exactly the same fault pattern. *)
let transient_should_fail spec ~key ~attempt =
  match transient spec with
  | None -> false
  | Some (permille, max_failures) ->
    attempt <= max_failures
    && hash [ `Int spec.seed; `Str key; `Int attempt ] mod 1000 < permille
