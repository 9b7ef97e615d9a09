module Event = Hypar_obs.Event

type stat = { count : int; total_us : float; self_us : float }

type frame = {
  name : string;
  start : float;
  mutable children : (float * float) list;
}

(* Length of the union of [intervals] inside [lo, hi]. *)
let coverage ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> covered +. (b -. a) | None -> covered

let aggregate events =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 4 in
  let agg : (string, stat) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (e : Event.t) ->
      let stack = Option.value (Hashtbl.find_opt stacks e.tid) ~default:[] in
      match e.kind with
      | Event.Begin _ ->
        Hashtbl.replace stacks e.tid
          ({ name = e.name; start = e.ts; children = [] } :: stack)
      | Event.End -> (
        match stack with
        | f :: rest when f.name = e.name ->
          let dur = e.ts -. f.start in
          let self = dur -. coverage ~lo:f.start ~hi:e.ts f.children in
          (match rest with
          | parent :: _ -> parent.children <- (f.start, e.ts) :: parent.children
          | [] -> ());
          let s =
            match Hashtbl.find_opt agg f.name with
            | Some s -> s
            | None ->
              order := f.name :: !order;
              { count = 0; total_us = 0.0; self_us = 0.0 }
          in
          Hashtbl.replace agg f.name
            {
              count = s.count + 1;
              total_us = s.total_us +. dur;
              self_us = s.self_us +. self;
            };
          Hashtbl.replace stacks e.tid rest
        | _ -> ())
      | Event.Counter _ | Event.Gauge _ | Event.Instant _ -> ())
    events;
  List.rev_map (fun name -> (name, Hashtbl.find agg name)) !order

let find stats name =
  Option.value (List.assoc_opt name stats)
    ~default:{ count = 0; total_us = 0.0; self_us = 0.0 }
