let syntax_help =
  "fault spec syntax (one directive per line, '#' starts a comment):\n\
  \  seed N                          deterministic seed for transient faults\n\
  \  dead-node CGC ROW COL [KIND]    kill a node (KIND: mult|alu|both)\n\
  \  dead-cgc CGC                    kill a whole CGC component\n\
  \  area-loss N% | area-loss N      shrink the FPGA area\n\
  \  comm-slowdown PCT               scale comm costs to PCT% (>= 100)\n\
  \  transient PERMILLE MAX          fail evaluations PERMILLE/1000 of the\n\
  \                                  time, at most MAX times per point"

let error line fmt =
  Format.kasprintf (fun msg -> Error (Printf.sprintf "line %d: %s" line msg)) fmt

let int_arg line what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> error line "%s: expected an integer, got %S" what s

let nat_arg line what s =
  match int_arg line what s with
  | Ok n when n >= 0 -> Ok n
  | Ok n -> error line "%s: must be non-negative, got %d" what n
  | Error _ as e -> e

let ( let* ) = Result.bind

let parse_fault line words =
  match words with
  | [ "dead-cgc"; k ] ->
    let* k = nat_arg line "dead-cgc" k in
    Ok (Fault.Dead_cgc k)
  | "dead-cgc" :: _ -> error line "dead-cgc takes exactly one argument"
  | "dead-node" :: cgc :: row :: col :: rest ->
    let* cgc = nat_arg line "dead-node cgc" cgc in
    let* row = nat_arg line "dead-node row" row in
    let* col = nat_arg line "dead-node col" col in
    let* unit_kind =
      match rest with
      | [] | [ "both" ] -> Ok Fault.Both
      | [ "mult" ] -> Ok Fault.Mult
      | [ "alu" ] -> Ok Fault.Alu
      | [ k ] -> error line "dead-node: unknown unit kind %S (mult|alu|both)" k
      | _ -> error line "dead-node takes at most four arguments"
    in
    Ok (Fault.Dead_node { cgc; row; col; unit_kind })
  | "dead-node" :: _ ->
    error line "dead-node needs CGC ROW COL [mult|alu|both]"
  | [ "area-loss"; amount ] ->
    if String.length amount > 1 && amount.[String.length amount - 1] = '%' then
      let* p =
        nat_arg line "area-loss" (String.sub amount 0 (String.length amount - 1))
      in
      if p > 100 then error line "area-loss: percentage must be <= 100"
      else Ok (Fault.Area_loss (`Percent p))
    else
      let* u = nat_arg line "area-loss" amount in
      Ok (Fault.Area_loss (`Units u))
  | "area-loss" :: _ -> error line "area-loss takes exactly one argument"
  | [ "comm-slowdown"; pct ] ->
    let* pct = int_arg line "comm-slowdown" pct in
    if pct < 100 then error line "comm-slowdown: percentage must be >= 100"
    else Ok (Fault.Comm_slowdown pct)
  | "comm-slowdown" :: _ -> error line "comm-slowdown takes exactly one argument"
  | [ "transient"; permille; max_failures ] ->
    let* permille = nat_arg line "transient permille" permille in
    let* max_failures = nat_arg line "transient max-failures" max_failures in
    if permille > 1000 then error line "transient: permille must be <= 1000"
    else Ok (Fault.Transient { permille; max_failures })
  | "transient" :: _ -> error line "transient needs PERMILLE MAX-FAILURES"
  | directive :: _ -> error line "unknown directive %S" directive
  | [] -> assert false

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let words_of s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")

let parse_lines directive text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno seed items = function
    | [] -> Ok (seed, List.rev items)
    | raw :: rest -> (
      match words_of (strip_comment raw) with
      | [] -> go (lineno + 1) seed items rest
      | [ "seed"; n ] ->
        let* n = nat_arg lineno "seed" n in
        go (lineno + 1) n items rest
      | "seed" :: _ -> error lineno "seed takes exactly one argument"
      | words ->
        let* item = directive lineno words in
        go (lineno + 1) seed (item :: items) rest)
  in
  go 1 0 [] lines

let load_with parse path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Result.map_error (Printf.sprintf "%s: %s" path) (parse text)

let seeded_text ~seed item_string items =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "seed %d\n" seed);
  List.iter (fun item -> Buffer.add_string buf (item_string item ^ "\n")) items;
  Buffer.contents buf

let of_string text =
  Result.map
    (fun (seed, faults) -> { Fault.seed; faults })
    (parse_lines parse_fault text)

let load = load_with of_string

let to_text (spec : Fault.spec) =
  seeded_text ~seed:spec.Fault.seed Fault.fault_string spec.Fault.faults

let json_fault f =
  let obj fields =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}"
  in
  match f with
  | Fault.Dead_node { cgc; row; col; unit_kind } ->
    obj
      [
        ("kind", {|"dead-node"|});
        ("cgc", string_of_int cgc);
        ("row", string_of_int row);
        ("col", string_of_int col);
        ("unit", Printf.sprintf "%S" (Fault.unit_kind_string unit_kind));
      ]
  | Fault.Dead_cgc k -> obj [ ("kind", {|"dead-cgc"|}); ("cgc", string_of_int k) ]
  | Fault.Area_loss (`Percent p) ->
    obj [ ("kind", {|"area-loss"|}); ("percent", string_of_int p) ]
  | Fault.Area_loss (`Units u) ->
    obj [ ("kind", {|"area-loss"|}); ("units", string_of_int u) ]
  | Fault.Comm_slowdown pct ->
    obj [ ("kind", {|"comm-slowdown"|}); ("percent", string_of_int pct) ]
  | Fault.Transient { permille; max_failures } ->
    obj
      [
        ("kind", {|"transient"|});
        ("permille", string_of_int permille);
        ("max_failures", string_of_int max_failures);
      ]

let to_json (spec : Fault.spec) =
  Printf.sprintf "{\"seed\": %d, \"faults\": [%s]}" spec.Fault.seed
    (String.concat ", " (List.map json_fault spec.Fault.faults))
