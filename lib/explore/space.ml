type point = {
  area : int;
  cgcs : int;
  rows : int;
  cols : int;
  clock_ratio : int;
  timing : int;
}

type t = {
  areas : int list;
  cgcs : int list;
  rows : int list;
  cols : int list;
  clock_ratios : int list;
  timings : int list;
  max_points : int;
}

let default_max_points = 4096

let make ?(areas = [ 500; 1500; 5000 ]) ?(cgcs = [ 1; 2; 3 ]) ?(rows = [ 2 ])
    ?(cols = [ 2 ]) ?(clock_ratios = [ 3 ]) ?(max_points = default_max_points)
    ~timings () =
  { areas; cgcs; rows; cols; clock_ratios; timings; max_points }

let ( let* ) = Result.bind

let parse_int s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "invalid integer %S in axis" s)

(* index of the first ".." in [s], if any *)
let range_split s =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '.' && s.[i + 1] = '.' then Some i
    else go (i + 1)
  in
  go 0

let item_values item =
  match range_split item with
  | None ->
    let* v = parse_int item in
    Ok [ v ]
  | Some i ->
    let lo_s = String.sub item 0 i in
    let rest = String.sub item (i + 2) (String.length item - i - 2) in
    let hi_s, step_s =
      match String.index_opt rest ':' with
      | None -> (rest, None)
      | Some j ->
        (String.sub rest 0 j, Some (String.sub rest (j + 1) (String.length rest - j - 1)))
    in
    let* lo = parse_int lo_s in
    let* hi = parse_int hi_s in
    let* step = match step_s with None -> Ok 1 | Some s -> parse_int s in
    if step <= 0 then
      Error (Printf.sprintf "range %S: step must be positive" (String.trim item))
    else if hi < lo then
      Error (Printf.sprintf "range %S: end is below start" (String.trim item))
    else begin
      let acc = ref [] in
      let v = ref lo in
      while !v <= hi do
        acc := !v :: !acc;
        v := !v + step
      done;
      Ok (List.rev !acc)
    end

let axis_of_string s =
  let items = String.split_on_char ',' s in
  let* values =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* vs = item_values item in
        Ok (acc @ vs))
      (Ok []) items
  in
  if values = [] then Error "empty axis" else Ok values

let size t =
  List.fold_left
    (fun acc axis -> acc * List.length axis)
    1
    [ t.areas; t.cgcs; t.rows; t.cols; t.clock_ratios; t.timings ]

let points t =
  let n = size t in
  if n = 0 then Error "design space is empty (an axis has no values)"
  else if n > t.max_points then
    Error
      (Printf.sprintf "design space has %d points, above the bound of %d \
                       (raise --max-points)" n t.max_points)
  else
    Ok
      (List.concat_map
         (fun area ->
           List.concat_map
             (fun cgcs ->
               List.concat_map
                 (fun rows ->
                   List.concat_map
                     (fun cols ->
                       List.concat_map
                         (fun clock_ratio ->
                           List.map
                             (fun timing ->
                               { area; cgcs; rows; cols; clock_ratio; timing })
                             t.timings)
                         t.clock_ratios)
                     t.cols)
                 t.rows)
             t.cgcs)
         t.areas)

let point_key p =
  Printf.sprintf "a%d/k%d/g%dx%d/r%d/t%d" p.area p.cgcs p.rows p.cols
    p.clock_ratio p.timing
