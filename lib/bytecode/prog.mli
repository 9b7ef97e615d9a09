(** A parsed bytecode program: declarations plus a flat, labelled
    instruction stream.  This is the shape `.hbc` files describe and the
    shape {!Recover} turns back into a structured {!Hypar_ir.Cdfg.t}. *)

type pos = { line : int; col : int }

type array_decl = {
  aname : string;
  size : int;
  elem_width : int;
  init : int array option;  (** [Some _] for initialised arrays *)
  is_const : bool;  (** [.const] arrays reject [astore] *)
}

type local_decl = { lname : string; lwidth : int }

type item =
  | Label of string  (** a branch target naming the next instruction *)
  | Insn of Insn.t

type t = {
  name : string;  (** program name, defaults to the file basename *)
  arrays : array_decl list;
  locals : local_decl list;
  code : (pos * item) list;  (** in file order *)
}

val to_string : t -> string
(** Render in the exact syntax {!Parse.program} accepts; parsing the
    result and rendering it again yields the same text. *)
