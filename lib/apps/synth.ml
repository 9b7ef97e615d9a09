module Ir = Hypar_ir

let lcg seed =
  let state = ref (if seed = 0 then 1 else seed) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    if bound <= 0 then 0 else !state mod bound

let random_dfg ?(seed = 1) ~nodes () =
  let next = lcg seed in
  let b = Ir.Builder.create () in
  Ir.Builder.declare_array b "scratch" 64;
  let temps = ref [] in
  let operand () =
    match !temps with
    | [] -> Ir.Builder.imm (next 100)
    | l ->
      if next 4 = 0 then Ir.Builder.imm (next 100)
      else Ir.Builder.var (List.nth l (next (List.length l)))
  in
  let alu_ops = Array.of_list Ir.Types.all_alu_ops in
  for _ = 1 to nodes do
    let v =
      match next 10 with
      | 0 -> Ir.Builder.mul b "t" (operand ()) (operand ())
      | 1 -> Ir.Builder.load b "t" ~arr:"scratch" (Ir.Builder.imm (next 64))
      | 2 ->
        Ir.Builder.store b ~arr:"scratch" (Ir.Builder.imm (next 64)) (operand ());
        Ir.Builder.mov b "t" (operand ())
      | 3 -> Ir.Builder.mov b "t" (operand ())
      | 4 -> Ir.Builder.un b Ir.Types.Neg "t" (operand ())
      | _ ->
        let op = alu_ops.(next (Array.length alu_ops)) in
        Ir.Builder.bin b op "t" (operand ()) (operand ())
    in
    temps := v :: !temps
  done;
  Ir.Builder.finish_block b ~label:"body" ~term:(Ir.Block.Return None);
  let cdfg = Ir.Builder.cdfg ~name:"random_dfg" b in
  Ir.Cdfg.dfg cdfg 0

let matmul_source ~n =
  String.concat "\n"
    [
      Printf.sprintf "int a[%d];" (n * n);
      Printf.sprintf "int b[%d];" (n * n);
      Printf.sprintf "int c[%d];" (n * n);
      "void main() {";
      "  int i;";
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1) {" n;
      "    int j;";
      Printf.sprintf "    for (j = 0; j < %d; j = j + 1) {" n;
      "      int s = 0;";
      "      int k;";
      Printf.sprintf "      for (k = 0; k < %d; k = k + 1) {" n;
      Printf.sprintf "        s = s + a[i * %d + k] * b[k * %d + j];" n n;
      "      }";
      Printf.sprintf "      c[i * %d + j] = s;" n;
      "    }";
      "  }";
      "}";
    ]
