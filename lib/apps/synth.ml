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

let binops = [| "+"; "-"; "*"; "&"; "|"; "^" |]

let random_straightline_main ?(seed = 1) ~ops () =
  let next = lcg seed in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "int out[4];\nvoid main() {\n";
  Buffer.add_string buf "  int v0 = 13;\n  int v1 = 7;\n";
  for i = 2 to ops + 1 do
    let a = next i and b = next i in
    let op = binops.(next (Array.length binops)) in
    (* keep magnitudes bounded so products stay far from overflow *)
    Buffer.add_string buf
      (Printf.sprintf "  int v%d = ((v%d %s v%d) & 65535) - 32768;\n" i a op b)
  done;
  Buffer.add_string buf (Printf.sprintf "  out[0] = v%d;\n}\n" (ops + 1));
  Buffer.contents buf

let random_structured_main ?(seed = 1) ~depth () =
  let next = lcg seed in
  let buf = Buffer.create 1024 in
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      Printf.sprintf "i%d" !n
  in
  let rec stmt level indent =
    let pad = String.make indent ' ' in
    match (if level <= 0 then 2 + next 2 else next 4) with
    | 0 ->
      let v = fresh () in
      let bound = 2 + next 5 in
      Buffer.add_string buf
        (Printf.sprintf "%sint %s;\n%sfor (%s = 0; %s < %d; %s = %s + 1) {\n"
           pad v pad v v bound v v);
      stmt (level - 1) (indent + 2);
      Buffer.add_string buf (pad ^ "}\n")
    | 1 ->
      Buffer.add_string buf
        (Printf.sprintf "%sif ((acc & %d) > %d) {\n" pad (1 + next 15) (next 8));
      stmt (level - 1) (indent + 2);
      Buffer.add_string buf (pad ^ "} else {\n");
      stmt (level - 1) (indent + 2);
      Buffer.add_string buf (pad ^ "}\n")
    | 2 ->
      Buffer.add_string buf
        (Printf.sprintf "%sacc = ((acc * %d + %d) & 262143) - 131072;\n" pad
           (1 + next 9) (next 100))
    | _ ->
      Buffer.add_string buf
        (Printf.sprintf "%sacc = (acc ^ (acc >> %d)) + %d;\n" pad (1 + next 6)
           (next 50))
  in
  Buffer.add_string buf "int out[4];\nint acc;\nvoid main() {\n  acc = 1;\n";
  stmt depth 2;
  stmt depth 2;
  Buffer.add_string buf "  out[0] = acc;\n}\n";
  Buffer.contents buf

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

let fir_source ~taps ~samples =
  String.concat "\n"
    [
      Printf.sprintf "int x[%d];" (samples + taps);
      Printf.sprintf "int h[%d];" taps;
      Printf.sprintf "int y[%d];" samples;
      "void main() {";
      "  int i;";
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1) {" samples;
      "    int s = 0;";
      "    int t;";
      Printf.sprintf "    for (t = 0; t < %d; t = t + 1) {" taps;
      "      s = s + x[i + t] * h[t];";
      "    }";
      "    y[i] = s >> 8;";
      "  }";
      "}";
    ]
