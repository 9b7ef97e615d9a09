type error = { line : int; col : int; msg : string }

exception Error of { name : string option; err : error }

let string_of_error e = Printf.sprintf "%d:%d: %s" e.line e.col e.msg

let message name err =
  (match name with Some n -> n ^ ":" | None -> "") ^ string_of_error err

let () =
  Printexc.register_printer (function
    | Error { name; err } -> Some (message name err)
    | _ -> None)
