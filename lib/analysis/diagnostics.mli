(** The reporting core {!Lint} and {!Analyze} share.

    Each tool keeps its own code variant, rules and positions, and
    describes them once as a {!kind}: its code table, its severity word
    and how to print a finding's position.  This module owns everything
    derived from that: code lookups, the sort order, the text line
    [FILE:POS: SEVERITY ID [mnemonic]: message] and the JSON document
    [{"file": …, "count": N, "<key>": […]}]. *)

type ('code, 'd) kind = {
  codes : ('code * string * string) list;
      (** Every code in id order, with its stable id (["W001"]) and
          kebab-case mnemonic (["unused-variable"]). *)
  severity : string;  (** the text line's severity word *)
  key : string;  (** the JSON document's array key *)
  code : 'd -> 'code;
  message : 'd -> string;
  position : 'd -> string;  (** the text line's POS *)
  fields : 'd -> (string * int) list;
      (** the JSON entry's position fields, also the primary sort key *)
}

val all : ('code, _) kind -> 'code list
val id : ('code, _) kind -> 'code -> string
val mnemonic : ('code, _) kind -> 'code -> string

val of_string : ('code, _) kind -> string -> 'code option
(** Accepts an id or a mnemonic, either case. *)

val sort : (_, 'd) kind -> 'd list -> 'd list
(** By position fields, then id, then message; duplicates dropped. *)

val render : (_, 'd) kind -> file:string -> 'd list -> string
(** One text line per finding. *)

val render_json : (_, 'd) kind -> file:string -> 'd list -> string
