(** Binding of a CGC schedule onto physical resources (paper §3.3,
    step (b) of the coarse-grain mapping).

    Chains are assigned to (CGC, column) pairs, chain positions to rows,
    and memory operations to shared-memory ports.  The register-bank
    pressure (values produced in one cycle and consumed in a later one)
    is measured against the bank capacity. *)

type slot = { node : int; cgc : int; row : int; col : int; cycle : int }

type t = {
  slots : slot list;  (** node-op placements, ascending (cycle, cgc, col, row) *)
  mem_ports : (int * int) list;  (** (node, port) for loads/stores *)
  max_live : int;  (** peak register-bank occupancy *)
  fits_register_bank : bool;
}

val bind : Cgc.t -> Hypar_ir.Dfg.t -> Schedule.t -> t

val is_valid : ?health:Cgc.health -> Cgc.t -> t -> bool
(** No two slots share (cycle, cgc, row, col); no two memory ops share
    (cycle, port); coordinates within bounds.  With [health], also checks
    that no slot occupies dead hardware (a position beyond its column's
    usable chain depth). *)

val render_gantt : Cgc.t -> Hypar_ir.Dfg.t -> Schedule.t -> t -> string
(** Text Gantt chart of the bound schedule: one row per physical node
    (cgcN[row,col]) and memory port, one column per CGC cycle, cells
    showing the mnemonic of the operation executing there. *)
