(** Coarse-Grain Component (CGC) data-path model, after the authors'
    FPL'04 design used as the coarse-grain hardware in the paper.

    The data-path is a set of [cgcs] identical CGC components, a
    reconfigurable interconnect and a register bank.  Each CGC is an
    [rows]×[cols] array of nodes; every node contains a multiplier and an
    ALU (one active per cycle), and the steering logic chains nodes along
    a column so that up to [rows] *dependent* operations (e.g. a
    multiply-add) complete within a single CGC cycle.  All node operations
    have unit delay in [T_CGC] ("this period is set for having unit
    execution delay for the CGCs"). *)

type t = {
  cgcs : int;  (** number of CGC components *)
  rows : int;  (** chain depth executable in one cycle *)
  cols : int;  (** independent chains per CGC per cycle *)
  mem_ports : int;  (** shared-data-memory ports per CGC cycle *)
  register_bank : int;  (** capacity of the register bank (for stats) *)
}

val make :
  ?mem_ports:int -> ?register_bank:int -> cgcs:int -> rows:int -> cols:int
  -> unit -> t
(** Defaults: 2 memory ports, 64 registers. Raises [Invalid_argument] on
    non-positive dimensions. *)

val two_by_two : int -> t
(** [two_by_two k] — the paper's data-path of [k] 2×2 CGCs. *)

val chains : t -> int
(** Total chains available per cycle: [cgcs * cols]. *)

val node_slots : t -> int
(** Total node slots per cycle: [cgcs * rows * cols]. *)

(** {2 Degraded data-paths}

    A [health] value describes which parts of the data-path still work; it
    is threaded through {!Schedule} and {!Coarse_map} so a degraded
    platform schedules around dead hardware instead of crashing.  Columns
    are indexed in chain space ([cgc * cols + col]); slots are
    [(chain, depth)] with depth 1-based as in {!Schedule.placement}. *)

type health = {
  col_rows : int array;  (** usable chain depth per column, [0..rows] *)
  no_mul : (int * int) list;  (** slots whose multiplier is dead *)
  no_alu : (int * int) list;  (** slots whose ALU is dead *)
}

val full_health : t -> health
(** Every node of every CGC works. *)

val healthy : t -> health -> bool
(** [true] iff the health equals {!full_health}. *)

val chain_of : t -> cgc:int -> col:int -> int
(** Chain-space index of a CGC column. *)

val kill_node : t -> health -> cgc:int -> row:int -> col:int -> health
(** Whole node dead: truncates its column's usable depth to [row] (the
    steering chain cannot route around a dead node). *)

val kill_unit : t -> health -> cgc:int -> row:int -> col:int -> mul:bool -> health
(** One functional unit dead: the slot can no longer host multiplies
    ([mul:true]) or ALU operations ([mul:false]) but still chains. *)

val kill_cgc : t -> health -> cgc:int -> health
(** Whole CGC component dead: all its columns drop to depth 0. *)

val pp_health : Format.formatter -> health -> unit

val describe : t -> string
(** e.g. ["two 2x2"] / ["three 2x2"] / ["4x 3x2"]. *)

val pp : Format.formatter -> t -> unit
