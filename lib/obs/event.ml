type arg = Int of int | Str of string

type kind =
  | Begin of { cat : string; args : (string * arg) list }
  | End
  | Counter of { delta : int }
  | Gauge of { value : int }
  | Instant of { cat : string }

type t = { name : string; ts : float; tid : int; kind : kind }
