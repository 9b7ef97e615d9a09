(** Declarative, seeded chaos injection for the serve pool.

    A chaos spec is a list of fault directives with per-directive
    probabilities, parsed from the same line-oriented text format as
    fault specs ({!Hypar_resilience.Spec}) and printable back with
    {!to_text} (a parse/print round-trip is stable).  Faults:

    - [crash P%] — the worker domain dies before executing the attempt;
    - [crash-on SEQ] — deterministic crash of one request's first
      attempt (regression fixtures);
    - [wedge P% MS] / [wedge-on SEQ MS] — the worker stalls for [MS]
      milliseconds {e without} heartbeating, so supervision must detect
      it and reassign the request;
    - [delay P% MS|MIN..MAX] — an innocent slow request: the stall
      keeps heartbeating and must {e not} trip wedge detection;
    - [drop P%] / [truncate P%] — the first write attempt of a response
      transfers nothing / only a prefix, exercising the full-write
      healing loop (the client still receives the complete line);
    - [slowloris P% MS] — the soak harness dribbles the request bytes
      [MS] ms per chunk, exercising the buffered line reader.

    Every decision is a pure FNV-1a hash of (seed, fault kind, request
    digest, attempt) — never of worker identity or arrival order — so a
    campaign makes identical choices for every [--jobs] value and every
    rerun under the same seed. *)

type fault =
  | Crash of int  (** percent of attempts *)
  | Crash_on of int  (** request sequence number; first attempt only *)
  | Wedge of { percent : int; ms : int }
  | Wedge_on of { seq : int; ms : int }
  | Delay of { percent : int; min_ms : int; max_ms : int }
  | Drop of int
  | Truncate of int
  | Slowloris of { percent : int; ms : int }

type spec = { seed : int; faults : fault list }

val none : spec
val active : spec -> bool

val default : spec
(** The built-in [--chaos default] mix: moderate crash/wedge/delay plus
    write and read interference, seed 0. *)

(* decisions, all deterministic in (spec, key, attempt) *)

val crashes : spec -> seq:int -> key:string -> attempt:int -> bool
val wedge_ms : spec -> seq:int -> key:string -> attempt:int -> int option
val delay_ms : spec -> key:string -> attempt:int -> int option
val drop_write : spec -> key:string -> bool
val truncate_write : spec -> key:string -> bool
val slowloris_ms : spec -> key:string -> int option

(* parse / print *)

val syntax_help : string
val to_text : spec -> string

val of_string : string -> (spec, string) result
(** Inverse of {!to_text}; errors carry a line number. *)

val of_arg : string -> (spec option, string) result
(** The CLI's [--chaos] argument: ["none"]/["off"] → [None],
    ["default"] → the built-in spec, anything else → the spec file at that
    path, read with {!of_string}. *)
