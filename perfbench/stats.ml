let sorted values = List.sort Float.compare values |> Array.of_list

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles, method="exclusive": the i-th cut point
   sits at position i * (n + 1) / 4, clamped to the data, interpolated
   with exact integer arithmetic. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)

type percentile = { value : float; samples : int; above : int }

(* multiply before dividing: 90 * 100 / 100 is exact, 0.9 * 100 is not *)
let rank p n = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.0)))

let percentile p values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no values";
  let r = min n (rank p n) in
  { value = a.(r - 1); samples = n; above = n - r }

let min_above = 10

let min_samples p =
  let rec go n = if n - rank p n >= min_above then n else go (n + 1) in
  go 1

let geomean values =
  if values = [] then invalid_arg "Stats.geomean: no values";
  let logs =
    List.map
      (fun v ->
        if v <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
        log v)
      values
  in
  exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
