type ('code, 'd) kind = {
  codes : ('code * string * string) list;
  severity : string;
  key : string;
  code : 'd -> 'code;
  message : 'd -> string;
  position : 'd -> string;
  fields : 'd -> (string * int) list;
}

let all kind = List.map (fun (c, _, _) -> c) kind.codes
let entry kind c = List.find (fun (c', _, _) -> c' = c) kind.codes
let id kind c = match entry kind c with _, id, _ -> id
let mnemonic kind c = match entry kind c with _, _, m -> m

let of_string kind s =
  let s = String.lowercase_ascii s in
  List.find_map
    (fun (c, id, m) ->
      if String.lowercase_ascii id = s || m = s then Some c else None)
    kind.codes

let sort kind ds =
  let key d = (kind.fields d, id kind (kind.code d), kind.message d) in
  List.sort_uniq (fun a b -> compare (key a) (key b)) ds

let render kind ~file ds =
  String.concat ""
    (List.map
       (fun d ->
         let c = kind.code d in
         Printf.sprintf "%s:%s: %s %s [%s]: %s\n" file (kind.position d)
           kind.severity (id kind c) (mnemonic kind c) (kind.message d))
       ds)

let render_json kind ~file ds =
  let entry d =
    let c = kind.code d in
    Printf.sprintf "    {\"code\": %S, \"name\": %S, %s\"message\": \"%s\"}"
      (id kind c) (mnemonic kind c)
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf "%S: %d, " k v) (kind.fields d)))
      (Hypar_obs.Jsonv.escape (kind.message d))
  in
  Printf.sprintf "{\n  \"file\": \"%s\",\n  \"count\": %d,\n  %S: [\n%s\n  ]\n}\n"
    (Hypar_obs.Jsonv.escape file) (List.length ds) kind.key
    (String.concat ",\n" (List.map entry ds))
