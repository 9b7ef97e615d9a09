(* Per-layer samples of a traced run.  Calls made within one pass add
   into that pass's total; [end_pass] turns each total into one sample,
   so a metric reads as "per pass" whatever the number of calls. *)

type t = {
  samples : (string, float list) Hashtbl.t;
  pass : (string, float) Hashtbl.t;
}

let create () = { samples = Hashtbl.create 32; pass = Hashtbl.create 32 }

let add t name v =
  Hashtbl.replace t.pass name
    (v +. Option.value (Hashtbl.find_opt t.pass name) ~default:0.0)

let time t name f =
  let r, ms = Tally.time f in
  add t name ms;
  r

(* A sample outside the pass sums: one value per request or per op. *)
let sample t name v =
  Hashtbl.replace t.samples name
    (v :: Option.value (Hashtbl.find_opt t.samples name) ~default:[])

let end_pass t =
  Hashtbl.iter (fun name v -> sample t name v) t.pass;
  Hashtbl.reset t.pass

let values t name = Option.value (Hashtbl.find_opt t.samples name) ~default:[]

let median t name =
  match values t name with [] -> None | vs -> Some (Stats.median vs)

(* Exact counts must read the same in every pass. *)
let varying t names =
  List.filter
    (fun name ->
      match values t name with [] -> false | v :: rest -> List.exists (( <> ) v) rest)
    names
