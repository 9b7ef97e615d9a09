(** Shared-data-memory communication model (the [t_comm] term of Eq. 2).

    When a kernel executes on the coarse-grain data-path, its live-in
    scalars must be read from — and its live-out results written back
    to — the shared data memory of the platform (Figure 1).  The cost per
    kernel invocation is a fixed synchronisation overhead plus the word
    count divided by the number of memory ports. *)

type model = {
  cycles_per_word : int;  (** FPGA cycles to move one word *)
  ports : int;  (** words transferable in parallel *)
  fixed_overhead : int;  (** per-invocation synchronisation cost *)
}

val default : model
(** 1 cycle/word, 2 ports, 4 cycles of overhead. *)

val make : ?cycles_per_word:int -> ?ports:int -> ?fixed_overhead:int -> unit -> model

val block_words : Hypar_ir.Live.t -> int -> int
(** Words a block exchanges per invocation: |live-in| + |defs live-out|. *)

val words_cost : model -> int -> int
(** Cost of one boundary crossing moving [words] words: the fixed
    synchronisation overhead plus the port-parallel transfer time.  The
    per-edge unit {!transition_cycles} sums — exposed so the incremental
    engine ({!Engine.Inc}) can precompute both crossing directions of an
    edge once. *)

val transition_cycles :
  model ->
  Hypar_ir.Live.t ->
  edges:((int * int) * int) list ->
  on_cgc:(int -> bool) ->
  int
(** Transition-based pricing (the default engine model): a transfer is
    paid only when control crosses the fine/coarse boundary.  Entering a
    coarse block [j] moves its live-in scalars; leaving a coarse block
    [i] publishes its live-out definitions.  Each crossing also pays the
    fixed synchronisation overhead.  Self-loops of a moved kernel are
    free — its state lives in the CGC register bank. *)
