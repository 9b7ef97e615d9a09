(* plain loops over int arrays: no closure, no ref cell, no polymorphic
   compare, and the scan stops at the first worse objective *)
let dominates (a : int array) (b : int array) =
  let n = Array.length a in
  if n <> Array.length b then
    invalid_arg "Pareto.dominates: mismatched objective vectors";
  let i = ref 0 and better = ref false in
  while !i < n && a.(!i) <= b.(!i) do
    if a.(!i) < b.(!i) then better := true;
    incr i
  done;
  !i = n && !better

let frontier_flags objectives xs =
  let vecs = Array.map objectives xs in
  let n = Array.length vecs in
  Array.map
    (fun v ->
      let k = ref 0 in
      while !k < n && not (dominates vecs.(!k) v) do
        incr k
      done;
      !k = n)
    vecs

let best_by f xs =
  let best = ref None in
  Array.iteri
    (fun i x ->
      match !best with
      | Some (_, v) when v <= f x -> ()
      | _ -> best := Some (i, f x))
    xs;
  Option.map fst !best
