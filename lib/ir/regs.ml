type 'a t = {
  mutable stamp : int array;
  mutable value : 'a array;
  mutable epoch : int;
  absent : 'a;
}

type 'a key = 'a t Domain.DLS.key

let per_domain absent =
  Domain.DLS.new_key (fun () -> { stamp = [||]; value = [||]; epoch = 1; absent })

let fresh key =
  let t = Domain.DLS.get key in
  t.epoch <- t.epoch + 1;
  t

let mem t v = v < Array.length t.stamp && t.stamp.(v) = t.epoch
let get t v = if mem t v then t.value.(v) else t.absent

let set t v x =
  let n = Array.length t.stamp in
  if v >= n then begin
    let n' = max (v + 1) (2 * n) in
    let stamp = Array.make n' 0 and value = Array.make n' t.absent in
    Array.blit t.stamp 0 stamp 0 n;
    Array.blit t.value 0 value 0 n;
    t.stamp <- stamp;
    t.value <- value
  end;
  t.stamp.(v) <- t.epoch;
  t.value.(v) <- x

(* epochs start at 1 and only grow, so a zero stamp is never current *)
let remove t v = if v < Array.length t.stamp then t.stamp.(v) <- 0
let push t v x = set t v (x :: get t v)
