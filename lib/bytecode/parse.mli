(** Assembler-style parser for the textual `.hbc` bytecode format.

    The format is line oriented:
    - [; ...] and [# ...] are comments;
    - [.array NAME SIZE WIDTH [= v0 v1 ...]] declares a shared-memory
      array ([.const ...] a ROM with the same shape);
    - [.local NAME WIDTH] declares a scalar slot (implicitly zero at
      entry, like Mini-C declarations);
    - [NAME:] on a line of its own labels the next instruction;
    - everything else is [mnemonic [operand]] (see {!Insn}).

    Errors carry 1-based line/column positions ({!Hypar_ir.Frontend}). *)

type error = Hypar_ir.Frontend.error = { line : int; col : int; msg : string }

val program : ?name:string -> string -> (Prog.t, error) result
(** Parses a whole `.hbc` source.  [name] defaults to ["bytecode"].
    Reports the first syntactic error (unknown mnemonic, malformed
    operand, bad directive, duplicate declaration); whole-program
    properties — label resolution, stack discipline — are checked by
    {!Recover}. *)
