let width = 256
let height = 256
let blocks = width / 8 * (height / 8)
let timing_constraint = 11_000_000

(* Standard JPEG luminance quantisation table, natural (row-major) order. *)
let quant_table =
  [|
    16; 11; 10; 16; 24; 40; 51; 61;
    12; 12; 14; 19; 26; 58; 60; 55;
    14; 13; 16; 24; 40; 57; 69; 56;
    14; 17; 22; 29; 51; 87; 80; 62;
    18; 22; 37; 56; 68; 109; 103; 77;
    24; 35; 55; 64; 81; 104; 113; 92;
    49; 64; 78; 87; 103; 121; 120; 101;
    72; 92; 95; 98; 112; 100; 103; 99;
  |]

(* libjpeg-style quality scaling of the base table (quality 50 = the
   table itself; higher = finer quantisation). *)
let quant_table_for ~quality =
  let quality = if quality < 1 then 1 else if quality > 100 then 100 else quality in
  let scale =
    if quality < 50 then 5000 / quality else 200 - (2 * quality)
  in
  Array.map
    (fun q ->
      let v = ((q * scale) + 50) / 100 in
      if v < 1 then 1 else if v > 255 then 255 else v)
    quant_table

(* Reciprocals in Q19 of (quant * 8): the DCT leaves coefficients scaled
   by 8 (libjpeg-islow convention), so dividing by quant*8 quantises. *)
let qrecip_for table =
  Array.map
    (fun q -> int_of_float (Float.round (524288.0 /. float_of_int (q * 8))))
    table

let qrecip = qrecip_for quant_table

(* Zig-zag scan order: zigzag.(i) = natural index of the i-th coefficient. *)
let zigzag =
  let zz = Array.make 64 0 in
  let i = ref 0 in
  for d = 0 to 14 do
    let cells =
      List.filter_map
        (fun r ->
          let c = d - r in
          if r < 8 && c >= 0 && c < 8 then Some (r, c) else None)
        (List.init 8 Fun.id)
    in
    let cells = if d mod 2 = 0 then List.rev cells else cells in
    List.iter
      (fun (r, c) ->
        zz.(!i) <- (r * 8) + c;
        incr i)
      cells
  done;
  zz

(* Standard JPEG luminance DC Huffman table: code/length per size category. *)
let dc_len = [| 2; 3; 3; 3; 3; 3; 4; 5; 6; 7; 8; 9 |]
let dc_code = [| 0; 2; 3; 4; 5; 6; 14; 30; 62; 126; 254; 510 |]

let amp_mask = Array.init 16 (fun c -> (1 lsl c) - 1)

let dc_lengths = dc_len
let dc_code_of cat = dc_code.(cat)

(* One unrolled LLM (libjpeg-islow) 1-D DCT pass as Mini-C text.
   [load i] / [store i expr] produce the access expressions; the first
   pass up-scales by PASS1_BITS=2, the second descales to the final 8x
   coefficient scale. *)
let llm_pass_c ~first ~load ~store =
  let shift = if first then 11 else 15 in
  let round = 1 lsl (shift - 1) in
  let even0, even4 =
    if first then
      ( Printf.sprintf "%s" (store 0 "(tmp10 + tmp11) << 2"),
        Printf.sprintf "%s" (store 4 "(tmp10 - tmp11) << 2") )
    else
      ( store 0 "(tmp10 + tmp11 + 2) >> 2",
        store 4 "(tmp10 - tmp11 + 2) >> 2" )
  in
  String.concat "\n"
    [
      Printf.sprintf "  int d0 = %s;" (load 0);
      Printf.sprintf "  int d1 = %s;" (load 1);
      Printf.sprintf "  int d2 = %s;" (load 2);
      Printf.sprintf "  int d3 = %s;" (load 3);
      Printf.sprintf "  int d4 = %s;" (load 4);
      Printf.sprintf "  int d5 = %s;" (load 5);
      Printf.sprintf "  int d6 = %s;" (load 6);
      Printf.sprintf "  int d7 = %s;" (load 7);
      "  int tmp0 = d0 + d7;";
      "  int tmp7 = d0 - d7;";
      "  int tmp1 = d1 + d6;";
      "  int tmp6 = d1 - d6;";
      "  int tmp2 = d2 + d5;";
      "  int tmp5 = d2 - d5;";
      "  int tmp3 = d3 + d4;";
      "  int tmp4 = d3 - d4;";
      "  int tmp10 = tmp0 + tmp3;";
      "  int tmp13 = tmp0 - tmp3;";
      "  int tmp11 = tmp1 + tmp2;";
      "  int tmp12 = tmp1 - tmp2;";
      "  " ^ even0 ^ ";";
      "  " ^ even4 ^ ";";
      "  int32 z1 = (tmp12 + tmp13) * 4433;";
      Printf.sprintf "  %s;" (store 2 (Printf.sprintf "(z1 + tmp13 * 6270 + %d) >> %d" round shift));
      Printf.sprintf "  %s;" (store 6 (Printf.sprintf "(z1 - tmp12 * 15137 + %d) >> %d" round shift));
      "  int z1b = tmp4 + tmp7;";
      "  int z2 = tmp5 + tmp6;";
      "  int z3 = tmp4 + tmp6;";
      "  int z4 = tmp5 + tmp7;";
      "  int32 z5 = (z3 + z4) * 9633;";
      "  int32 t4 = tmp4 * 2446;";
      "  int32 t5 = tmp5 * 16819;";
      "  int32 t6 = tmp6 * 25172;";
      "  int32 t7 = tmp7 * 12299;";
      "  int32 z1c = 0 - z1b * 7373;";
      "  int32 z2c = 0 - z2 * 20995;";
      "  int32 z3c = 0 - z3 * 16069;";
      "  int32 z4c = 0 - z4 * 3196;";
      "  int32 z3d = z3c + z5;";
      "  int32 z4d = z4c + z5;";
      Printf.sprintf "  %s;" (store 7 (Printf.sprintf "(t4 + z1c + z3d + %d) >> %d" round shift));
      Printf.sprintf "  %s;" (store 5 (Printf.sprintf "(t5 + z2c + z4d + %d) >> %d" round shift));
      Printf.sprintf "  %s;" (store 3 (Printf.sprintf "(t6 + z2c + z3d + %d) >> %d" round shift));
      Printf.sprintf "  %s;" (store 1 (Printf.sprintf "(t7 + z1c + z4d + %d) >> %d" round shift));
    ]

let dct_row_c =
  String.concat "\n"
    [
      "void dct_row(int r) {";
      "  int base = r << 3;";
      llm_pass_c ~first:true
        ~load:(fun i -> Printf.sprintf "blk[base + %d]" i)
        ~store:(fun i e -> Printf.sprintf "tmpq[base + %d] = %s" i e);
      "}";
    ]

let dct_col_c =
  String.concat "\n"
    [
      "void dct_col(int c) {";
      llm_pass_c ~first:false
        ~load:(fun i -> Printf.sprintf "tmpq[c + %d]" (i * 8))
        ~store:(fun i e -> Printf.sprintf "coef[c + %d] = %s" (i * 8) e);
      "}";
    ]

let source_with ~qrecip =
  String.concat "\n"
    [
      Ctable.const_array "qrecip" qrecip;
      Ctable.const_array "zigzag" zigzag;
      Ctable.const_array "dc_len" dc_len;
      Ctable.const_array "dc_code" dc_code;
      Ctable.const_array "mask" amp_mask;
      Ctable.int_array "image" (width * height);
      Ctable.int_array "out_bytes" 65536;
      "int out_len;";
      "int bit_buf;";
      "int bit_cnt;";
      "int prev_dc;";
      Ctable.int_array "blk" 64;
      Ctable.int_array "tmpq" 64;
      Ctable.int_array "coef" 64;
      Ctable.int_array "zz" 64;
      Ctable.int_array "sym_val" 256;
      Ctable.int_array "sym_len" 256;
      "int nsym;";
      dct_row_c;
      dct_col_c;
      {|
void append(int val, int n) {
  sym_val[nsym] = val;
  sym_len[nsym] = n;
  nsym = nsym + 1;
}

void main() {
  out_len = 0;
  bit_buf = 0;
  bit_cnt = 0;
  prev_dc = 0;
  int by;
  for (by = 0; by < 32; by = by + 1) {
    int bx;
    for (bx = 0; bx < 32; bx = bx + 1) {
      int i;
      for (i = 0; i < 64; i = i + 1) {
        int r = i >> 3;
        int c = i & 7;
        blk[i] = image[(by * 8 + r) * 256 + bx * 8 + c] - 128;
      }
      int r2;
      for (r2 = 0; r2 < 8; r2 = r2 + 1) {
        dct_row(r2);
      }
      int c2;
      for (c2 = 0; c2 < 8; c2 = c2 + 1) {
        dct_col(c2);
      }
      nsym = 0;
      int i2;
      for (i2 = 0; i2 < 64; i2 = i2 + 1) {
        int idx = zigzag[i2];
        int v = coef[idx];
        int q = v < 0
          ? 0 - (((0 - v) * qrecip[idx] + 262144) >> 19)
          : ((v * qrecip[idx] + 262144) >> 19);
        zz[i2] = q;
      }
      int dc = zz[0];
      int diff = dc - prev_dc;
      prev_dc = dc;
      int adiff = abs(diff);
      int cat = 0;
      while (adiff > 0) {
        adiff = adiff >> 1;
        cat = cat + 1;
      }
      int amp = diff < 0 ? diff + mask[cat] : diff;
      append((dc_code[cat] << cat) | (amp & mask[cat]), dc_len[cat] + cat);
      int run = 0;
      int k;
      for (k = 1; k < 64; k = k + 1) {
        int v2 = zz[k];
        if (v2 == 0) {
          run = run + 1;
        } else {
          while (run > 15) {
            append(240, 8);
            run = run - 16;
          }
          int av = abs(v2);
          int cat2 = 0;
          while (av > 0) {
            av = av >> 1;
            cat2 = cat2 + 1;
          }
          int amp2 = v2 < 0 ? v2 + mask[cat2] : v2;
          append((((run << 4) | cat2) << cat2) | (amp2 & mask[cat2]), 8 + cat2);
          run = 0;
        }
      }
      if (run > 0) {
        append(0, 8);
      }
      int t;
      for (t = 0; t < nsym; t = t + 1) {
        int val = sym_val[t];
        int n = sym_len[t];
        int p;
        for (p = n - 1; p >= 0; p = p - 1) {
          int bit = (val >> p) & 1;
          bit_buf = (bit_buf << 1) | bit;
          bit_cnt = bit_cnt + 1;
          if (bit_cnt == 8) {
            out_bytes[out_len] = bit_buf;
            out_len = out_len + 1;
            bit_buf = 0;
            bit_cnt = 0;
          }
        }
      }
    }
  }
  if (bit_cnt > 0) {
    out_bytes[out_len] = bit_buf << (8 - bit_cnt);
    out_len = out_len + 1;
  }
}
|};
    ]

let source = source_with ~qrecip

let source_for ~quality =
  source_with ~qrecip:(qrecip_for (quant_table_for ~quality))

(* Deterministic synthetic image: gradients, sinusoidal texture, noise.
   Each transcendental term depends on x, on y or on x + 2y alone (the
   sum is exact in float), so three small tables hold every value the
   per-pixel formula needs; the sum keeps that formula's order, so the
   pixels are the same. *)
let inputs ?(seed = 7) () =
  Hypar_obs.Span.with_ ~cat:"apps" "apps.jpeg.inputs" @@ fun () ->
  let state = ref seed in
  let noise () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod 61
  in
  let table n f = Array.init n (fun k -> f (float_of_int k)) in
  let along_x = table width (fun fx -> 56.0 *. sin (fx /. 3.1))
  and along_y = table height (fun fy -> 40.0 *. cos (fy /. 2.3))
  and diagonal =
    table (width + (2 * height)) (fun fd -> 24.0 *. sin (fd /. 5.7))
  in
  let pixel x y =
    let fx = float_of_int x and fy = float_of_int y in
    let v =
      80.0 +. along_x.(x) +. along_y.(y) +. diagonal.(x + (2 * y))
      +. (0.15 *. fx) +. (0.1 *. fy)
    in
    let v = int_of_float v + noise () in
    if v < 0 then 0 else if v > 255 then 255 else v
  in
  [
    ( "image",
      Array.init (width * height) (fun i -> pixel (i mod width) (i / width)) );
  ]

type golden_result = { bytes : int array; len : int; dc_values : int array }

(* --- bit-exact golden model -------------------------------------------- *)

let llm_pass ~first d =
  let shift = if first then 11 else 15 in
  let round = 1 lsl (shift - 1) in
  let out = Array.make 8 0 in
  let tmp0 = d.(0) + d.(7) and tmp7 = d.(0) - d.(7) in
  let tmp1 = d.(1) + d.(6) and tmp6 = d.(1) - d.(6) in
  let tmp2 = d.(2) + d.(5) and tmp5 = d.(2) - d.(5) in
  let tmp3 = d.(3) + d.(4) and tmp4 = d.(3) - d.(4) in
  let tmp10 = tmp0 + tmp3 and tmp13 = tmp0 - tmp3 in
  let tmp11 = tmp1 + tmp2 and tmp12 = tmp1 - tmp2 in
  if first then begin
    out.(0) <- (tmp10 + tmp11) lsl 2;
    out.(4) <- (tmp10 - tmp11) lsl 2
  end
  else begin
    out.(0) <- (tmp10 + tmp11 + 2) asr 2;
    out.(4) <- (tmp10 - tmp11 + 2) asr 2
  end;
  let z1 = (tmp12 + tmp13) * 4433 in
  out.(2) <- (z1 + (tmp13 * 6270) + round) asr shift;
  out.(6) <- (z1 - (tmp12 * 15137) + round) asr shift;
  let z1b = tmp4 + tmp7 and z2 = tmp5 + tmp6 in
  let z3 = tmp4 + tmp6 and z4 = tmp5 + tmp7 in
  let z5 = (z3 + z4) * 9633 in
  let t4 = tmp4 * 2446 and t5 = tmp5 * 16819 in
  let t6 = tmp6 * 25172 and t7 = tmp7 * 12299 in
  let z1c = -(z1b * 7373) and z2c = -(z2 * 20995) in
  let z3c = -(z3 * 16069) and z4c = -(z4 * 3196) in
  let z3d = z3c + z5 and z4d = z4c + z5 in
  out.(7) <- (t4 + z1c + z3d + round) asr shift;
  out.(5) <- (t5 + z2c + z4d + round) asr shift;
  out.(3) <- (t6 + z2c + z3d + round) asr shift;
  out.(1) <- (t7 + z1c + z4d + round) asr shift;
  out

let golden ?quality input_list =
  let qrecip =
    match quality with
    | None -> qrecip
    | Some quality -> qrecip_for (quant_table_for ~quality)
  in
  let image =
    match List.assoc_opt "image" input_list with
    | Some a -> a
    | None -> invalid_arg "Jpeg.golden: missing \"image\" input"
  in
  let out_bytes = Array.make 65536 0 in
  let out_len = ref 0 in
  let bit_buf = ref 0 and bit_cnt = ref 0 in
  let prev_dc = ref 0 in
  let dc_values = Array.make blocks 0 in
  let putbits value n =
    for p = n - 1 downto 0 do
      let bit = (value asr p) land 1 in
      bit_buf := (!bit_buf lsl 1) lor bit;
      incr bit_cnt;
      if !bit_cnt = 8 then begin
        out_bytes.(!out_len) <- !bit_buf;
        incr out_len;
        bit_buf := 0;
        bit_cnt := 0
      end
    done
  in
  let category v =
    let a = ref (abs v) and c = ref 0 in
    while !a > 0 do
      a := !a asr 1;
      incr c
    done;
    !c
  in
  let blk = Array.make 64 0 in
  let tmpq = Array.make 64 0 in
  let coef = Array.make 64 0 in
  let zz_out = Array.make 64 0 in
  for by = 0 to 31 do
    for bx = 0 to 31 do
      for i = 0 to 63 do
        let r = i asr 3 and c = i land 7 in
        blk.(i) <- image.((((by * 8) + r) * 256) + (bx * 8) + c) - 128
      done;
      for r = 0 to 7 do
        let d = Array.init 8 (fun i -> blk.((r * 8) + i)) in
        let out = llm_pass ~first:true d in
        Array.iteri (fun i v -> tmpq.((r * 8) + i) <- v) out
      done;
      for c = 0 to 7 do
        let d = Array.init 8 (fun i -> tmpq.(c + (i * 8))) in
        let out = llm_pass ~first:false d in
        Array.iteri (fun i v -> coef.(c + (i * 8)) <- v) out
      done;
      for i = 0 to 63 do
        let idx = zigzag.(i) in
        let v = coef.(idx) in
        let q =
          if v < 0 then -(((-v * qrecip.(idx)) + 262144) asr 19)
          else ((v * qrecip.(idx)) + 262144) asr 19
        in
        zz_out.(i) <- q
      done;
      let dc = zz_out.(0) in
      dc_values.((by * 32) + bx) <- dc;
      let diff = dc - !prev_dc in
      prev_dc := dc;
      let cat = category diff in
      let amp = if diff < 0 then diff + amp_mask.(cat) else diff in
      putbits
        ((dc_code.(cat) lsl cat) lor (amp land amp_mask.(cat)))
        (dc_len.(cat) + cat);
      let run = ref 0 in
      for k = 1 to 63 do
        let v = zz_out.(k) in
        if v = 0 then incr run
        else begin
          while !run > 15 do
            putbits 240 8;
            run := !run - 16
          done;
          let cat = category v in
          let amp = if v < 0 then v + amp_mask.(cat) else v in
          putbits
            ((((!run lsl 4) lor cat) lsl cat) lor (amp land amp_mask.(cat)))
            (8 + cat);
          run := 0
        end
      done;
      if !run > 0 then putbits 0 8
    done
  done;
  if !bit_cnt > 0 then begin
    out_bytes.(!out_len) <- !bit_buf lsl (8 - !bit_cnt);
    incr out_len
  end;
  { bytes = out_bytes; len = !out_len; dc_values }

let prepared_memo = ref None

let prepared () =
  match !prepared_memo with
  | Some p -> p
  | None ->
    let p = Hypar_core.Flow.prepare ~name:"jpeg" ~inputs:(inputs ()) source in
    prepared_memo := Some p;
    p
