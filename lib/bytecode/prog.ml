type pos = { line : int; col : int }

type array_decl = {
  aname : string;
  size : int;
  elem_width : int;
  init : int array option;
  is_const : bool;
}

type local_decl = { lname : string; lwidth : int }
type item = Label of string | Insn of Insn.t

type t = {
  name : string;
  arrays : array_decl list;
  locals : local_decl list;
  code : (pos * item) list;
}

let to_string t =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun a ->
      let dir = if a.is_const then ".const" else ".array" in
      pr "%s %s %d %d" dir a.aname a.size a.elem_width;
      (match a.init with
      | None -> ()
      | Some vs ->
        Buffer.add_string buf " =";
        Array.iter (fun v -> pr " %d" v) vs);
      Buffer.add_char buf '\n')
    t.arrays;
  List.iter (fun l -> pr ".local %s %d\n" l.lname l.lwidth) t.locals;
  List.iter
    (fun (_, item) ->
      match item with
      | Label l -> pr "%s:\n" l
      | Insn i -> pr "  %s\n" (Insn.to_string i))
    t.code;
  Buffer.contents buf
