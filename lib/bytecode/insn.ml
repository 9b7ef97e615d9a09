module Types = Hypar_ir.Types

type t =
  | Push of int
  | Load of string
  | Store of string
  | Aload of string
  | Astore of string
  | Alu of Types.alu_op
  | Mul
  | Div
  | Rem
  | Un of Types.un_op
  | Select
  | Dup
  | Pop
  | Swap
  | Jmp of string
  | Brt of string
  | Brf of string
  | Ret
  | Retv

let mnemonic = function
  | Push _ -> "push"
  | Load _ -> "load"
  | Store _ -> "store"
  | Aload _ -> "aload"
  | Astore _ -> "astore"
  | Alu op -> Types.string_of_alu_op op
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Un op -> Types.string_of_un_op op
  | Select -> "select"
  | Dup -> "dup"
  | Pop -> "pop"
  | Swap -> "swap"
  | Jmp _ -> "jmp"
  | Brt _ -> "brt"
  | Brf _ -> "brf"
  | Ret -> "ret"
  | Retv -> "retv"

let to_string i =
  match i with
  | Push n -> Printf.sprintf "push %d" n
  | Load s | Store s | Aload s | Astore s | Jmp s | Brt s | Brf s ->
    Printf.sprintf "%s %s" (mnemonic i) s
  | Alu _ | Mul | Div | Rem | Un _ | Select | Dup | Pop | Swap | Ret | Retv ->
    mnemonic i

let ends_block = function
  | Jmp _ | Brt _ | Brf _ | Ret | Retv -> true
  | _ -> false

let falls_through = function Jmp _ | Ret | Retv -> false | _ -> true

let branch_target = function
  | Jmp l | Brt l | Brf l -> Some l
  | _ -> None
