(** Flattening compiler for the profiling interpreter's compiled backend.

    [compile] turns a CDFG into preallocated flat arrays so the executor
    ({!Exec}) touches no lists, labels or hashtables on the hot path:

    - register operands are pre-resolved to dense [vid] indices into one
      flat register file; {!Hypar_ir.Dataflow.Assigned} splits them into
      reads that are defined on every path ([Reg], no runtime check) and
      reads that keep the "read of undefined variable" check ([Checked],
      with the variable name for the diagnostic);
    - array accesses are pre-resolved to integer handles into a flat
      table of data arrays ([-1] marks an access to an undeclared array,
      which must stay a runtime error, and stores carry their const-ness
      as a compiled flag);
    - branch targets are integer block ids, and every static CFG edge
      owns a preallocated counter slot ([edge] fields), deduplicated per
      (src, dst) pair exactly like the oracle's hashtable keying. *)

type operand =
  | Imm of int
  | Reg of int  (** register index (vid); assigned on every path here *)
  | Checked of int * string
      (** register index + name: may be read before any definition *)

type instr =
  | Bin of { dst : int; op : Hypar_ir.Types.alu_op; a : operand; b : operand }
  | Mul of { dst : int; a : operand; b : operand }
  | Div of { dst : int; a : operand; b : operand }
  | Rem of { dst : int; a : operand; b : operand }
  | Un of { dst : int; op : Hypar_ir.Types.un_op; a : operand }
  | Mov of { dst : int; src : operand }
  | Select of { dst : int; cond : operand; if_true : operand; if_false : operand }
  | Load of { dst : int; arr : int; aname : string; index : operand }
  | Store of { arr : int; aname : string; const : bool; index : operand; value : operand }

type terminator =
  | Jump of { target : int; edge : int }
  | Branch of {
      cond : operand;
      if_true : int;
      edge_true : int;
      if_false : int;
      edge_false : int;
    }
  | Return of operand option

type block = {
  body : instr array;
  static_loads : int;  (** loads per execution of the block *)
  static_stores : int;  (** stores per execution of the block *)
  term : terminator;
}

type t = {
  entry : int;
  blocks : block array;
  nregs : int;
  tracked : bool array;
      (** per register: some [Checked] read inspects it, so its writes
          must record that it is defined; no other write needs to *)
  decls : Hypar_ir.Cdfg.array_decl array;
      (** handle = index, declaration order *)
  handle_of : (string, int) Hashtbl.t;
      (** name -> handle; later duplicate declarations win, matching the
          oracle's [Hashtbl.replace] semantics *)
  const_names : (string, unit) Hashtbl.t;
  edge_keys : (int * int) array;  (** edge slot -> (src, dst) block ids *)
}

val compile : Hypar_ir.Cdfg.t -> t
