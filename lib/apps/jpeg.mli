(** JPEG encoder — the paper's second benchmark application, re-implemented
    in Mini-C.

    Pipeline per 8×8 block of a 256×256 greyscale image (1024 blocks, the
    paper's input size): level shift, 2-D integer DCT (LLM/libjpeg-islow
    style, unrolled 1-D row and column passes in Q13 with PASS1 scaling),
    quantisation with the standard JPEG luminance table via reciprocal
    multiplication (keeping the DFGs division-free, as the paper notes),
    zig-zag reordering, and run/size entropy coding: standard JPEG DC
    Huffman codes, fixed 8-bit run/size AC symbols (a simplified Huffman
    stage — see DESIGN.md substitutions), symbol buffering and an MSB-first
    bit packer whose inner loop is the hottest kernel. *)

val width : int
val height : int
val blocks : int
(** 32×32 = 1024 blocks. *)

val source : string
(** The Mini-C program (with generated constant tables), at the standard
    table (quality 50). *)

val source_for : quality:int -> string
(** The encoder with a libjpeg-style quality-scaled quantisation table
    (1..100; 50 = the standard table). *)

val inputs : ?seed:int -> unit -> (string * int array) list
(** A deterministic synthetic 256×256 image: gradient + sinusoidal
    texture + pseudo-random noise, values 0..255. *)

type golden_result = {
  bytes : int array;  (** packed bitstream, [len] bytes used *)
  len : int;
  dc_values : int array;  (** quantised DC per block, for diagnostics *)
}

val golden : ?quality:int -> (string * int array) list -> golden_result
(** Bit-exact OCaml reference encoder, at the standard table or at a
    scaled [quality] (matching {!source_for}). *)

val quant_table_for : quality:int -> int array
(** The quality-scaled quantisation table (for the decoder oracle). *)

val prepared : unit -> Hypar_core.Flow.prepared
(** Compiled and profiled with [inputs ()] (memoised; default seed). *)

val timing_constraint : int
(** The timing constraint used in the Table 3 reproduction. *)

val zigzag : int array
val quant_table : int array

val dc_lengths : int array
(** Standard JPEG luminance DC Huffman code lengths per size category. *)

val dc_code_of : int -> int
(** Code value for a DC size category (see {!dc_lengths}). *)
