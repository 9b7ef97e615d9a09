(** Rendering of partitioning results in the layout of the paper's
    Tables 2 and 3: one column per platform configuration, rows for the
    initial all-FPGA cycles, the cycles spent in the CGC data-path, the
    moved basic blocks, the final cycles, the percentage reduction and
    the {!Engine.status_label}. *)

val render : title:string -> Engine.t list -> string
(** All runs must target the same application and timing constraint.
    Each column is as wide as its widest cell. *)
