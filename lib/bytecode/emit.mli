(** CDFG → bytecode compiler: the back half of `hypar compile-bc`.

    Every three-address instruction becomes a push/operate/store sequence;
    block labels become bytecode labels, jumps to the next emitted block
    become fall-throughs.  Re-ingesting the result through {!Parse} and
    {!Recover} yields a CDFG with identical observable behaviour (the
    differential property in the test suite), which is what turns every
    Mini-C example and generated program into a bytecode test input. *)

val to_string : Hypar_ir.Cdfg.t -> string
(** The bytecode text of the CDFG.  Variable names are mangled to
    [<sanitised-name>_<vid>] so distinct registers with the same display
    name stay distinct slots. *)
