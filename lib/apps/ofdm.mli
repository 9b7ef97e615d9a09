(** IEEE 802.11a OFDM transmitter front-end — the paper's first benchmark
    application, re-implemented in Mini-C.

    Pipeline per payload symbol: 16-QAM mapping of 48 data subcarriers
    (Gray-coded, Q11 amplitudes), pilot insertion (±26-subcarrier 802.11a
    layout), 64-point radix-2 DIT IFFT in Q14 fixed point with per-stage
    scaling, and 16-sample cyclic-prefix insertion — 80 output samples per
    symbol, {!symbols} = 6 payload symbols as in the paper's experiments.

    The module provides the Mini-C source, deterministic input
    generation, a bit-exact OCaml golden model and a memoised prepared
    (compiled + profiled) instance. *)

val symbols : int
(** 6 payload symbols, the input size of Tables 1 and 2. *)

val samples_per_symbol : int
(** 80 = 16 cyclic prefix + 64 IFFT outputs. *)

val source : string
(** The Mini-C program for {!symbols} payload symbols (with generated
    constant tables). *)

val source_for : symbols:int -> string
(** The same transmitter sized for a different payload length (used by
    the input-scaling ablation). *)

val inputs : ?seed:int -> unit -> (string * int array) list
(** Deterministic pseudo-random 16-QAM input symbols ([bits] array,
    one 0..15 value per data subcarrier). *)

val inputs_for : ?seed:int -> symbols:int -> unit -> (string * int array) list

val golden : (string * int array) list -> int array * int array
(** Bit-exact OCaml reference: returns (out_re, out_im), each
    [symbols * samples_per_symbol] long; the symbol count follows the
    input length. *)

val prepared : unit -> Hypar_core.Flow.prepared
(** Compiled and profiled with [inputs ()] (memoised; default seed). *)

val timing_constraint : int
(** The timing constraint used in the Table 2 reproduction. *)

val carrier_map : int array
(** FFT bin of each of the 48 data subcarriers (802.11a layout), used by
    the receiver oracle ([test/decode.ml]). *)
