(** Synthetic workloads for benchmarks, examples and property tests.

    All generators are deterministic in their [seed]. *)

val random_dfg : ?seed:int -> nodes:int -> unit -> Hypar_ir.Dfg.t
(** A random straight-line DFG over fresh temporaries: mixes ALU ops,
    multiplications, moves and loads/stores on a scratch array, with
    operands drawn from earlier results (guaranteeing forward edges). *)

val matmul_source : n:int -> string
(** Dense [n×n] integer matrix multiplication (a classic third workload
    for examples/benches): reads [a] and [b], writes [c]. *)
