(** Replayable crash corpus: minimal reproducers as [.mc] files.

    Each entry is a plain Mini-C source file prefixed by a comment
    header the Mini-C lexer skips, so every entry is simultaneously a
    compilable program and a self-describing record:

    {v
    // hypar-fuzz reproducer
    // seed: 7731
    // signature: optimize:semantics
    // note: found by hypar fuzz; fixed in the same change
    <source>
    v}

    [signature] records the oracle failure class the program {e used to}
    reproduce; after the underlying bug is fixed the entry must pass the
    whole oracle matrix, which is exactly what {!replay} asserts — the
    corpus is a regression suite, replayed by [dune runtest] and CI, not
    a museum of open failures. *)

type entry = {
  name : string;  (** file stem, e.g. ["opt-licm-div"] *)
  seed : int option;  (** generator seed that produced the original *)
  signature : string;  (** oracle signature before the fix *)
  note : string option;
  source : string;  (** Mini-C text, header excluded *)
}

val to_string : entry -> string
(** The on-disk form: header comments followed by the source. *)

val parse : name:string -> string -> (entry, string) result
(** Inverse of {!to_string}; tolerates missing [seed]/[note] lines but
    requires the [// hypar-fuzz reproducer] magic and a [signature]. *)

val save : dir:string -> entry -> string
(** Writes [<dir>/<name>.mc] (creating [dir] if needed) and returns the
    path. *)

val load_dir : string -> (entry list, string) result
(** All [.mc] entries under a directory, sorted by name; [Error] if the
    directory is unreadable or any entry is malformed. *)

val replay : ?fuel:int -> entry -> Oracle.verdict
(** Runs the full oracle matrix on the entry's source.  Baseline
    runtime errors are tolerated ([expect_clean:false]): entries may
    deliberately be unsafe programs whose point is error-behaviour
    equality across backends. *)
