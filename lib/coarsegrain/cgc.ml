type t = {
  cgcs : int;
  rows : int;
  cols : int;
  mem_ports : int;
  register_bank : int;
}

let make ?(mem_ports = 2) ?(register_bank = 64) ~cgcs ~rows ~cols () =
  if cgcs <= 0 || rows <= 0 || cols <= 0 || mem_ports <= 0 then
    invalid_arg "Cgc.make: dimensions must be positive";
  { cgcs; rows; cols; mem_ports; register_bank }

let two_by_two k = make ~cgcs:k ~rows:2 ~cols:2 ()

let chains t = t.cgcs * t.cols
let node_slots t = t.cgcs * t.rows * t.cols

(* ---- degraded data-paths (resilience layer) ---------------------------- *)

type health = {
  col_rows : int array;
  no_mul : (int * int) list;
  no_alu : (int * int) list;
}

let full_health t =
  { col_rows = Array.make (chains t) t.rows; no_mul = []; no_alu = [] }

let healthy t h =
  Array.for_all (fun r -> r = t.rows) h.col_rows
  && h.no_mul = [] && h.no_alu = []

let chain_of t ~cgc ~col = (cgc * t.cols) + col

(* depth slots are filled bottom-up, so a dead node at row [r] of a column
   truncates its usable chain depth to [r] (the steering logic cannot skip
   over a dead node) *)
let kill_node t h ~cgc ~row ~col =
  let c = chain_of t ~cgc ~col in
  { h with col_rows = Array.mapi (fun i r -> if i = c then min r row else r) h.col_rows }

let kill_unit t h ~cgc ~row ~col ~mul =
  let slot = (chain_of t ~cgc ~col, row + 1) in
  if mul then { h with no_mul = slot :: List.filter (( <> ) slot) h.no_mul }
  else { h with no_alu = slot :: List.filter (( <> ) slot) h.no_alu }

let kill_cgc t h ~cgc =
  {
    h with
    col_rows =
      Array.mapi
        (fun i r -> if i / t.cols = cgc then 0 else r)
        h.col_rows;
  }

let pp_health ppf h =
  Format.fprintf ppf "health{cols=[%s]%s%s}"
    (String.concat ";" (Array.to_list (Array.map string_of_int h.col_rows)))
    (if h.no_mul = [] then ""
     else
       " no_mul=" ^ String.concat ","
         (List.map (fun (c, d) -> Printf.sprintf "%d.%d" c d) h.no_mul))
    (if h.no_alu = [] then ""
     else
       " no_alu=" ^ String.concat ","
         (List.map (fun (c, d) -> Printf.sprintf "%d.%d" c d) h.no_alu))

let describe t =
  let count =
    match t.cgcs with
    | 1 -> "one"
    | 2 -> "two"
    | 3 -> "three"
    | 4 -> "four"
    | n -> string_of_int n ^ "x"
  in
  Printf.sprintf "%s %dx%d" count t.rows t.cols

let pp ppf t =
  Format.fprintf ppf "cgc{%d x %dx%d, mem_ports=%d, regs=%d}" t.cgcs t.rows
    t.cols t.mem_ports t.register_bank
