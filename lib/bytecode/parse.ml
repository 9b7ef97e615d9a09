module Types = Hypar_ir.Types

type error = Hypar_ir.Frontend.error = { line : int; col : int; msg : string }

exception Fail of error

let fail line col fmt =
  Printf.ksprintf (fun msg -> raise (Fail { line; col; msg })) fmt

(* A token with its 1-based starting column. *)
type tok = { col : int; text : string }

let strip_comment line =
  let n = String.length line in
  let rec scan i =
    if i >= n then line
    else
      match line.[i] with
      | ';' | '#' -> String.sub line 0 i
      | _ -> scan (i + 1)
  in
  scan 0

let tokens line =
  let n = String.length line in
  let rec skip i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip (i + 1) else i in
  let rec word i = if i < n && line.[i] <> ' ' && line.[i] <> '\t' then word (i + 1) else i in
  let rec go acc i =
    let i = skip i in
    if i >= n then List.rev acc
    else
      let j = word i in
      go ({ col = i + 1; text = String.sub line i (j - i) } :: acc) j
  in
  go [] 0

let is_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* The fixed part of the mnemonic table; ALU/unary operations are added
   from the shared [Types] name tables so the two stay in sync. *)
let mnemonics : (string, string option -> int -> int -> Insn.t) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let no_operand name insn =
    Hashtbl.replace tbl name (fun arg line col ->
        match arg with
        | None -> insn
        | Some _ -> fail line col "%s takes no operand" name)
  in
  let with_name name mk =
    Hashtbl.replace tbl name (fun arg line col ->
        match arg with
        | Some a when is_ident a -> mk a
        | Some a -> fail line col "%s: invalid name %S" name a
        | None -> fail line col "%s expects a name" name)
  in
  Hashtbl.replace tbl "push" (fun arg line col ->
      match arg with
      | Some a -> (
        match int_of_string_opt a with
        | Some n -> Insn.Push n
        | None -> fail line col "push: invalid integer %S" a)
      | None -> fail line col "push expects an integer");
  with_name "load" (fun s -> Insn.Load s);
  with_name "store" (fun s -> Insn.Store s);
  with_name "aload" (fun s -> Insn.Aload s);
  with_name "astore" (fun s -> Insn.Astore s);
  with_name "jmp" (fun s -> Insn.Jmp s);
  with_name "brt" (fun s -> Insn.Brt s);
  with_name "brf" (fun s -> Insn.Brf s);
  List.iter
    (fun op -> no_operand (Types.string_of_alu_op op) (Insn.Alu op))
    Types.all_alu_ops;
  List.iter
    (fun op -> no_operand (Types.string_of_un_op op) (Insn.Un op))
    Types.all_un_ops;
  no_operand "mul" Insn.Mul;
  no_operand "div" Insn.Div;
  no_operand "rem" Insn.Rem;
  no_operand "select" Insn.Select;
  no_operand "dup" Insn.Dup;
  no_operand "pop" Insn.Pop;
  no_operand "swap" Insn.Swap;
  no_operand "ret" Insn.Ret;
  no_operand "retv" Insn.Retv;
  tbl

type state = {
  mutable arrays : Prog.array_decl list;  (* reversed *)
  mutable locals : Prog.local_decl list;  (* reversed *)
  mutable code : (Prog.pos * Prog.item) list;  (* reversed *)
}

let check_fresh_name st line col name =
  if List.exists (fun (a : Prog.array_decl) -> a.aname = name) st.arrays then
    fail line col "duplicate declaration of %S" name;
  if List.exists (fun (l : Prog.local_decl) -> l.lname = name) st.locals then
    fail line col "duplicate declaration of %S" name

let parse_int (t : tok) line what =
  match int_of_string_opt t.text with
  | Some n -> n
  | None -> fail line t.col "%s: invalid integer %S" what t.text

let parse_name (t : tok) line what =
  if is_ident t.text then t.text
  else fail line t.col "%s: invalid name %S" what t.text

let parse_width (t : tok) line what =
  let w = parse_int t line what in
  if w < 1 || w > 64 then fail line t.col "%s: width %d out of range 1..64" what w;
  w

let parse_array st line ~is_const dir rest =
  match rest with
  | name :: size_t :: width_t :: tail ->
    let aname = parse_name name line dir in
    check_fresh_name st line name.col aname;
    let size = parse_int size_t line dir in
    if size < 1 then fail line size_t.col "%s: size must be positive" dir;
    let elem_width = parse_width width_t line dir in
    let init =
      match tail with
      | [] -> None
      | { text = "="; _ } :: vals ->
        let vs = List.map (fun t -> parse_int t line dir) vals in
        if List.length vs > size then
          fail line (List.hd vals).col "%s %s: %d initialisers for %d elements"
            dir aname (List.length vs) size;
        let arr = Array.make size 0 in
        List.iteri (fun i v -> arr.(i) <- v) vs;
        Some arr
      | t :: _ -> fail line t.col "%s: expected '=' before initialisers" dir
    in
    st.arrays <- { Prog.aname; size; elem_width; init; is_const } :: st.arrays
  | t :: _ -> fail line t.col "%s expects NAME SIZE WIDTH" dir
  | [] -> fail line 1 "%s expects NAME SIZE WIDTH" dir

let parse_local st line rest =
  match rest with
  | [ name; width ] ->
    let lname = parse_name name line ".local" in
    check_fresh_name st line name.col lname;
    let lwidth = parse_width width line ".local" in
    st.locals <- { Prog.lname; lwidth } :: st.locals
  | t :: _ -> fail line t.col ".local expects NAME WIDTH"
  | [] -> fail line 1 ".local expects NAME WIDTH"

let parse_line st line toks =
  match toks with
  | [] -> ()
  | { text; col } :: rest -> (
    if String.length text > 0 && text.[0] = '.' then
      match text with
      | ".array" -> parse_array st line ~is_const:false ".array" rest
      | ".const" -> parse_array st line ~is_const:true ".const" rest
      | ".local" -> parse_local st line rest
      | other -> fail line col "unknown directive %S" other
    else if String.length text > 1 && text.[String.length text - 1] = ':' then begin
      let label = String.sub text 0 (String.length text - 1) in
      if not (is_ident label) then fail line col "invalid label %S" label;
      match rest with
      | [] ->
        st.code <- ({ Prog.line; col }, Prog.Label label) :: st.code
      | t :: _ -> fail line t.col "label must be alone on its line"
    end
    else
      match Hashtbl.find_opt mnemonics text with
      | None -> fail line col "unknown mnemonic %S" text
      | Some mk ->
        let arg =
          match rest with
          | [] -> None
          | [ t ] -> Some t.text
          | _ :: t :: _ -> fail line t.col "%s: trailing tokens" text
        in
        let insn = mk arg line (match rest with t :: _ -> t.col | [] -> col) in
        st.code <- ({ Prog.line; col }, Prog.Insn insn) :: st.code)

let program ?(name = "bytecode") src =
  let st = { arrays = []; locals = []; code = [] } in
  try
    String.split_on_char '\n' src
    |> List.iteri (fun i raw -> parse_line st (i + 1) (tokens (strip_comment raw)));
    Ok
      {
        Prog.name;
        arrays = List.rev st.arrays;
        locals = List.rev st.locals;
        code = List.rev st.code;
      }
  with Fail e -> Error e
