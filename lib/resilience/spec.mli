(** Text and JSON representations of fault specifications.

    The text syntax is one directive per line ([#] starts a comment):
    {v
    seed N
    dead-node CGC ROW COL [mult|alu|both]
    dead-cgc CGC
    area-loss N%  |  area-loss N
    comm-slowdown PCT
    transient PERMILLE MAX
    v}
    {!of_string} and {!to_text} round-trip: parsing the printed form of
    any spec yields the same spec. *)

val syntax_help : string
(** Human-readable summary of the grammar above. *)

val of_string : string -> (Fault.spec, string) result
(** Parse a spec; errors are located as ["line N: message"]. *)

val load : string -> (Fault.spec, string) result
(** {!of_string} on a file's contents; errors are prefixed with the
    path. *)

val to_text : Fault.spec -> string
(** Canonical text form ([seed] line first, faults in order). *)

val to_json : Fault.spec -> string
(** One-line JSON object [{"seed": N, "faults": [...]}]. *)

(** {1 The directive-file format}

    The line loop shared with the serve chaos specs
    ([Hypar_server.Chaos]): one directive per line, [#] starts a
    comment, words split on blanks, [seed N] sets the seed (default 0),
    errors are located as ["line N: message"]. *)

val parse_lines :
  (int -> string list -> ('a, string) result) ->
  string ->
  (int * 'a list, string) result
(** [parse_lines directive text] is the seed and the directives of
    [text] in order; [directive lineno words] parses one non-[seed]
    line. *)

val load_with :
  (string -> ('a, string) result) -> string -> ('a, string) result
(** [load_with parse path] parses a file's contents; parse errors are
    prefixed with the path, an unreadable file is the [Sys_error]
    message. *)

val seeded_text : seed:int -> ('a -> string) -> 'a list -> string
(** The canonical text shape: a [seed] line, then one line per
    directive. *)

val error :
  int -> ('a, Format.formatter, unit, ('b, string) result) format4 -> 'a
(** [error lineno fmt ...] is [Error "line N: message"]. *)

val nat_arg : int -> string -> string -> (int, string) result
(** [nat_arg lineno what word] parses a non-negative integer argument. *)
