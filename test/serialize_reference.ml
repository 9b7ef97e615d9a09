(* Reference oracle for {!Hypar_ir.Serialize.to_string}: the tree writer
   the serialiser used before it wrote straight into its buffer.  It
   builds the whole s-expression and prints it with [string_of_int] and
   an escaping copy of every string; the library writer must produce the
   same bytes. *)

module Ir = Hypar_ir
module Instr = Ir.Instr
module Block = Ir.Block
module Cdfg = Ir.Cdfg
module Types = Ir.Types

type sexp = Atom of string | Str of string | List of sexp list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf = function
  | Atom a -> Buffer.add_string buf a
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ' ';
        write buf item)
      items;
    Buffer.add_char buf ')'

let int_atom n = Atom (string_of_int n)

let sexp_of_var (v : Instr.var) =
  List [ Atom "var"; Str v.vname; int_atom v.vid; int_atom v.vwidth ]

let sexp_of_operand = function
  | Instr.Var v -> sexp_of_var v
  | Instr.Imm n -> List [ Atom "imm"; int_atom n ]

let sexp_of_instr (instr : Instr.t) =
  match instr with
  | Instr.Bin { dst; op; a; b } ->
    List
      [ Atom "bin"; Atom (Types.string_of_alu_op op); sexp_of_var dst;
        sexp_of_operand a; sexp_of_operand b ]
  | Instr.Mul { dst; a; b } ->
    List [ Atom "mul"; sexp_of_var dst; sexp_of_operand a; sexp_of_operand b ]
  | Instr.Div { dst; a; b } ->
    List [ Atom "div"; sexp_of_var dst; sexp_of_operand a; sexp_of_operand b ]
  | Instr.Rem { dst; a; b } ->
    List [ Atom "rem"; sexp_of_var dst; sexp_of_operand a; sexp_of_operand b ]
  | Instr.Un { dst; op; a } ->
    List
      [ Atom "un"; Atom (Types.string_of_un_op op); sexp_of_var dst;
        sexp_of_operand a ]
  | Instr.Mov { dst; src } ->
    List [ Atom "mov"; sexp_of_var dst; sexp_of_operand src ]
  | Instr.Select { dst; cond; if_true; if_false } ->
    List
      [ Atom "select"; sexp_of_var dst; sexp_of_operand cond;
        sexp_of_operand if_true; sexp_of_operand if_false ]
  | Instr.Load { dst; arr; index } ->
    List [ Atom "load"; sexp_of_var dst; Str arr; sexp_of_operand index ]
  | Instr.Store { arr; index; value } ->
    List [ Atom "store"; Str arr; sexp_of_operand index; sexp_of_operand value ]

let sexp_of_terminator = function
  | Block.Jump l -> List [ Atom "jump"; Str l ]
  | Block.Branch { cond; if_true; if_false } ->
    List [ Atom "branch"; sexp_of_operand cond; Str if_true; Str if_false ]
  | Block.Return None -> List [ Atom "return" ]
  | Block.Return (Some op) -> List [ Atom "return"; sexp_of_operand op ]

let sexp_of_block (b : Block.t) =
  List
    [
      Atom "block";
      Str b.label;
      List (Atom "instrs" :: List.map sexp_of_instr b.instrs);
      List [ Atom "term"; sexp_of_terminator b.term ];
    ]

let sexp_of_array (d : Cdfg.array_decl) =
  let base =
    [
      Atom "array"; Str d.aname; int_atom d.size; int_atom d.elem_width;
      Atom (if d.is_const then "const" else "mutable");
    ]
  in
  match d.init with
  | None -> List base
  | Some init ->
    List (base @ [ List (Atom "init" :: Array.to_list (Array.map int_atom init)) ])

let to_string cdfg =
  let buf = Buffer.create 4096 in
  let sexp =
    List
      [
        Atom "cdfg";
        Str (Cdfg.name cdfg);
        List (Atom "arrays" :: List.map sexp_of_array (Cdfg.arrays cdfg));
        List
          (Atom "blocks"
          :: Array.to_list (Array.map sexp_of_block (Ir.Cfg.blocks (Cdfg.cfg cdfg))));
      ]
  in
  write buf sexp;
  Buffer.add_char buf '\n';
  Buffer.contents buf
