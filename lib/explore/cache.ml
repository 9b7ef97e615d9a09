type stats = { hits : int; misses : int }

type 'a t = {
  tbl : (Space.point, 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { tbl = Hashtbl.create 64; hits = 0; misses = 0 }

let digest_of_cdfg cdfg =
  Digest.to_hex (Digest.string (Hypar_ir.Serialize.to_string cdfg))

let key ~digest point = digest ^ "|" ^ Space.point_key point

let find t p =
  match Hashtbl.find_opt t.tbl p with
  | Some _ as v ->
    t.hits <- t.hits + 1;
    v
  | None ->
    t.misses <- t.misses + 1;
    None

let add t p v = Hashtbl.replace t.tbl p v
let stats t = { hits = t.hits; misses = t.misses }
