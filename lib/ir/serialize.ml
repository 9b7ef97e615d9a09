exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* --- a tiny s-expression reader ------------------------------------------ *)

type sexp = Atom of string | Str of string | List of sexp list

let tokenize src =
  let toks = ref [] in
  let i = ref 0 in
  let n = String.length src in
  while !i < n do
    (match src.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' ->
      toks := `Lparen :: !toks;
      incr i
    | ')' ->
      toks := `Rparen :: !toks;
      incr i
    | '"' ->
      let buf = Buffer.create 16 in
      incr i;
      let rec scan () =
        if !i >= n then fail "unterminated string"
        else
          match src.[!i] with
          | '"' -> incr i
          | '\\' ->
            if !i + 1 >= n then fail "dangling escape";
            Buffer.add_char buf src.[!i + 1];
            i := !i + 2;
            scan ()
          | c ->
            Buffer.add_char buf c;
            incr i;
            scan ()
      in
      scan ();
      toks := `Str (Buffer.contents buf) :: !toks
    | _ ->
      let start = !i in
      while
        !i < n
        && not
             (match src.[!i] with
             | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' -> true
             | _ -> false)
      do
        incr i
      done;
      toks := `Atom (String.sub src start (!i - start)) :: !toks);
    ()
  done;
  List.rev !toks

let parse_sexp src =
  let toks = ref (tokenize src) in
  let rec parse_one () =
    match !toks with
    | [] -> fail "unexpected end of input"
    | `Lparen :: rest ->
      toks := rest;
      let items = ref [] in
      let rec items_loop () =
        match !toks with
        | `Rparen :: rest ->
          toks := rest;
          List (List.rev !items)
        | [] -> fail "missing ')'"
        | _ ->
          items := parse_one () :: !items;
          items_loop ()
      in
      items_loop ()
    | `Rparen :: _ -> fail "unexpected ')'"
    | `Atom a :: rest ->
      toks := rest;
      Atom a
    | `Str s :: rest ->
      toks := rest;
      Str s
  in
  let result = parse_one () in
  (match !toks with [] -> () | _ -> fail "trailing input");
  result

(* --- encoding ------------------------------------------------------------ *)

(* The writer emits the s-expression layout the reader parses straight
   into one buffer.  Every item after a list's head is written with its
   leading space, so [(head item item)] is [open_ head], the items, and
   [close]. *)

(* the digits of a non-positive [n]: working below zero covers [min_int] *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  Buffer.add_char buf ' ';
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let add_str buf s =
  Buffer.add_string buf " \"";
  if String.exists (fun c -> c = '"' || c = '\\') s then
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s
  else Buffer.add_string buf s;
  Buffer.add_char buf '"'

let add_atom buf a =
  Buffer.add_char buf ' ';
  Buffer.add_string buf a

let open_ buf head =
  Buffer.add_string buf " (";
  Buffer.add_string buf head

let close buf = Buffer.add_char buf ')'

let add_var buf (v : Instr.var) =
  open_ buf "var";
  add_str buf v.vname;
  add_int buf v.vid;
  add_int buf v.vwidth;
  close buf

let add_operand buf = function
  | Instr.Var v -> add_var buf v
  | Instr.Imm n ->
    open_ buf "imm";
    add_int buf n;
    close buf

let add_instr buf (instr : Instr.t) =
  (match instr with
  | Instr.Bin { dst; op; a; b } ->
    open_ buf "bin";
    add_atom buf (Types.string_of_alu_op op);
    add_var buf dst;
    add_operand buf a;
    add_operand buf b
  | Instr.Mul { dst; a; b } ->
    open_ buf "mul";
    add_var buf dst;
    add_operand buf a;
    add_operand buf b
  | Instr.Div { dst; a; b } ->
    open_ buf "div";
    add_var buf dst;
    add_operand buf a;
    add_operand buf b
  | Instr.Rem { dst; a; b } ->
    open_ buf "rem";
    add_var buf dst;
    add_operand buf a;
    add_operand buf b
  | Instr.Un { dst; op; a } ->
    open_ buf "un";
    add_atom buf (Types.string_of_un_op op);
    add_var buf dst;
    add_operand buf a
  | Instr.Mov { dst; src } ->
    open_ buf "mov";
    add_var buf dst;
    add_operand buf src
  | Instr.Select { dst; cond; if_true; if_false } ->
    open_ buf "select";
    add_var buf dst;
    add_operand buf cond;
    add_operand buf if_true;
    add_operand buf if_false
  | Instr.Load { dst; arr; index } ->
    open_ buf "load";
    add_var buf dst;
    add_str buf arr;
    add_operand buf index
  | Instr.Store { arr; index; value } ->
    open_ buf "store";
    add_str buf arr;
    add_operand buf index;
    add_operand buf value);
  close buf

let add_terminator buf term =
  open_ buf "term";
  (match term with
  | Block.Jump l ->
    open_ buf "jump";
    add_str buf l
  | Block.Branch { cond; if_true; if_false } ->
    open_ buf "branch";
    add_operand buf cond;
    add_str buf if_true;
    add_str buf if_false
  | Block.Return None -> open_ buf "return"
  | Block.Return (Some op) ->
    open_ buf "return";
    add_operand buf op);
  close buf;
  close buf

let add_block buf (b : Block.t) =
  open_ buf "block";
  add_str buf b.label;
  open_ buf "instrs";
  List.iter (add_instr buf) b.instrs;
  close buf;
  add_terminator buf b.term;
  close buf

let add_array buf (d : Cdfg.array_decl) =
  open_ buf "array";
  add_str buf d.aname;
  add_int buf d.size;
  add_int buf d.elem_width;
  add_atom buf (if d.is_const then "const" else "mutable");
  Option.iter
    (fun init ->
      open_ buf "init";
      Array.iter (add_int buf) init;
      close buf)
    d.init;
  close buf

let to_string cdfg =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "(cdfg";
  add_str buf (Cdfg.name cdfg);
  open_ buf "arrays";
  List.iter (add_array buf) (Cdfg.arrays cdfg);
  close buf;
  open_ buf "blocks";
  Array.iter (add_block buf) (Cfg.blocks (Cdfg.cfg cdfg));
  close buf;
  Buffer.add_string buf ")\n";
  Buffer.contents buf

(* --- decoding ------------------------------------------------------------ *)

let as_int = function
  | Atom a -> (
    match int_of_string_opt a with Some n -> n | None -> fail "expected integer, got %S" a)
  | Str _ | List _ -> fail "expected integer"

let as_string = function
  | Str s -> s
  | Atom a -> a
  | List _ -> fail "expected string"

let var_of_sexp = function
  | List [ Atom "var"; name; vid; width ] ->
    { Instr.vname = as_string name; vid = as_int vid; vwidth = as_int width }
  | _ -> fail "malformed variable"

let operand_of_sexp = function
  | List [ Atom "imm"; n ] -> Instr.Imm (as_int n)
  | List (Atom "var" :: _) as v -> Instr.Var (var_of_sexp v)
  | _ -> fail "malformed operand"

let alu_op_of_string s =
  match List.find_opt (fun op -> Types.string_of_alu_op op = s) Types.all_alu_ops with
  | Some op -> op
  | None -> fail "unknown ALU op %S" s

let un_op_of_string s =
  match List.find_opt (fun op -> Types.string_of_un_op op = s) Types.all_un_ops with
  | Some op -> op
  | None -> fail "unknown unary op %S" s

let instr_of_sexp = function
  | List [ Atom "bin"; Atom op; dst; a; b ] ->
    Instr.Bin
      { dst = var_of_sexp dst; op = alu_op_of_string op;
        a = operand_of_sexp a; b = operand_of_sexp b }
  | List [ Atom "mul"; dst; a; b ] ->
    Instr.Mul { dst = var_of_sexp dst; a = operand_of_sexp a; b = operand_of_sexp b }
  | List [ Atom "div"; dst; a; b ] ->
    Instr.Div { dst = var_of_sexp dst; a = operand_of_sexp a; b = operand_of_sexp b }
  | List [ Atom "rem"; dst; a; b ] ->
    Instr.Rem { dst = var_of_sexp dst; a = operand_of_sexp a; b = operand_of_sexp b }
  | List [ Atom "un"; Atom op; dst; a ] ->
    Instr.Un { dst = var_of_sexp dst; op = un_op_of_string op; a = operand_of_sexp a }
  | List [ Atom "mov"; dst; src ] ->
    Instr.Mov { dst = var_of_sexp dst; src = operand_of_sexp src }
  | List [ Atom "select"; dst; cond; t; f ] ->
    Instr.Select
      { dst = var_of_sexp dst; cond = operand_of_sexp cond;
        if_true = operand_of_sexp t; if_false = operand_of_sexp f }
  | List [ Atom "load"; dst; arr; index ] ->
    Instr.Load
      { dst = var_of_sexp dst; arr = as_string arr; index = operand_of_sexp index }
  | List [ Atom "store"; arr; index; value ] ->
    Instr.Store
      { arr = as_string arr; index = operand_of_sexp index;
        value = operand_of_sexp value }
  | _ -> fail "malformed instruction"

let terminator_of_sexp = function
  | List [ Atom "jump"; l ] -> Block.Jump (as_string l)
  | List [ Atom "branch"; cond; t; f ] ->
    Block.Branch
      { cond = operand_of_sexp cond; if_true = as_string t; if_false = as_string f }
  | List [ Atom "return" ] -> Block.Return None
  | List [ Atom "return"; op ] -> Block.Return (Some (operand_of_sexp op))
  | _ -> fail "malformed terminator"

let block_of_sexp = function
  | List [ Atom "block"; label; List (Atom "instrs" :: instrs); List [ Atom "term"; term ] ]
    ->
    Block.make ~label:(as_string label)
      ~instrs:(List.map instr_of_sexp instrs)
      ~term:(terminator_of_sexp term)
  | _ -> fail "malformed block"

let array_of_sexp = function
  | List (Atom "array" :: name :: size :: width :: Atom kind :: rest) ->
    let init =
      match rest with
      | [] -> None
      | [ List (Atom "init" :: values) ] ->
        Some (Array.of_list (List.map as_int values))
      | _ -> fail "malformed array initialiser"
    in
    let is_const =
      match kind with
      | "const" -> true
      | "mutable" -> false
      | other -> fail "unknown array kind %S" other
    in
    {
      Cdfg.aname = as_string name;
      size = as_int size;
      init;
      is_const;
      elem_width = as_int width;
    }
  | _ -> fail "malformed array declaration"

let of_string src =
  match parse_sexp src with
  | List [ Atom "cdfg"; name; List (Atom "arrays" :: arrays); List (Atom "blocks" :: blocks) ]
    ->
    let arrays = List.map array_of_sexp arrays in
    let blocks = List.map block_of_sexp blocks in
    Cdfg.make ~name:(as_string name) ~arrays (Cfg.of_blocks blocks)
  | _ -> fail "expected (cdfg ...)"
