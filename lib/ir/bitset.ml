type t = int array

let bits = Sys.int_size
let create n = Array.make ((n + bits - 1) / bits) 0
let copy = Array.copy
let mem s i = s.(i / bits) land (1 lsl (i mod bits)) <> 0
let add s i = s.(i / bits) <- s.(i / bits) lor (1 lsl (i mod bits))
let remove s i = s.(i / bits) <- s.(i / bits) land lnot (1 lsl (i mod bits))

let diff_into s k =
  for w = 0 to Array.length s - 1 do
    s.(w) <- s.(w) land lnot k.(w)
  done

let union_into s g =
  for w = 0 to Array.length s - 1 do
    s.(w) <- s.(w) lor g.(w)
  done

let inter a b = Array.mapi (fun w x -> x land b.(w)) a
let union a b = Array.mapi (fun w x -> x lor b.(w)) a

let cardinal s =
  let rec ones n x = if x = 0 then n else ones (n + 1) (x land (x - 1)) in
  Array.fold_left ones 0 s

let equal a b =
  let rec go w = w < 0 || (a.(w) = b.(w) && go (w - 1)) in
  go (Array.length a - 1)

let iter f s =
  Array.iteri
    (fun w x ->
      if x <> 0 then
        for b = 0 to bits - 1 do
          if x land (1 lsl b) <> 0 then f ((w * bits) + b)
        done)
    s
