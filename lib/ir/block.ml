type label = string

type terminator =
  | Jump of label
  | Branch of { cond : Instr.operand; if_true : label; if_false : label }
  | Return of Instr.operand option

type t = { label : label; instrs : Instr.t list; term : terminator }

let make ~label ~instrs ~term = { label; instrs; term }

let successor_labels b =
  match b.term with
  | Jump l -> [ l ]
  | Branch { if_true; if_false; _ } ->
    if if_true = if_false then [ if_true ] else [ if_true; if_false ]
  | Return _ -> []

let instr_count b = List.length b.instrs

let terminator_uses b =
  let of_operand = function Instr.Var v -> [ v ] | Instr.Imm _ -> [] in
  match b.term with
  | Jump _ -> []
  | Branch { cond; _ } -> of_operand cond
  | Return None -> []
  | Return (Some op) -> of_operand op

let iter_vars f b =
  List.iter
    (fun instr ->
      Option.iter f (Instr.def instr);
      List.iter f (Instr.used_vars instr))
    b.instrs;
  List.iter f (terminator_uses b)

let pp_terminator ppf = function
  | Jump l -> Format.fprintf ppf "jump %s" l
  | Branch { cond; if_true; if_false } ->
    Format.fprintf ppf "branch %a ? %s : %s" Instr.pp_operand cond if_true
      if_false
  | Return None -> Format.pp_print_string ppf "return"
  | Return (Some op) -> Format.fprintf ppf "return %a" Instr.pp_operand op

let pp ppf b =
  Format.fprintf ppf "@[<v 2>%s:" b.label;
  List.iter (fun i -> Format.fprintf ppf "@,%a" Instr.pp i) b.instrs;
  Format.fprintf ppf "@,%a@]" pp_terminator b.term
