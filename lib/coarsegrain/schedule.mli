(** Resource-constrained list scheduling onto the CGC data-path
    (paper §3.3, step (a) of the coarse-grain mapping).

    Cycle-driven list scheduling with ALAP-based priority.  Per CGC cycle
    the data-path offers [Cgc.chains cgc] columns of [rows] node slots:
    independent operations may share a column (every CGC node is a full
    compute unit), while a *same-cycle dependent* operation must extend
    its producer's column below the current chain tail — the steering
    logic's row chaining, realising the paper's single-cycle "complex
    operations (like a multiply-add)".  Loads/stores use the
    shared-memory ports; register moves are realised by the steering
    interconnect and cost no cycle.  Divisions are not executable by CGC
    nodes: {!schedule} rejects DFGs containing them. *)

type placement = {
  cycle : int;  (** 1-based start cycle; 0 for free moves of constants *)
  chain : int;  (** column id within the cycle; -1 for moves and memory ops *)
  depth : int;  (** 1-based row slot in the column; 0 for moves/memory *)
}

type t = {
  placements : placement array;  (** per node id *)
  makespan : int;  (** latency in CGC cycles *)
}

exception Unsupported of string
(** Raised for DFGs containing divisions/remainders. *)

val schedule :
  ?priority:[ `Alap | `Asap | `Program ] ->
  ?health:Cgc.health ->
  Cgc.t ->
  Hypar_ir.Dfg.t ->
  t
(** [priority] selects the list-scheduling order (default [`Alap] —
    most critical first, the choice the [ablation:priority] bench
    justifies).  [health] (default: fully healthy) restricts placements to
    live slots: columns are truncated to their usable depth and slots with
    a dead multiplier/ALU never host the corresponding operations.
    Raises [Invalid_argument] when the health does not match the CGC
    geometry or {!supported_on} is false for it. *)

val supported : Hypar_ir.Dfg.t -> bool
(** [true] when the DFG contains no division/remainder. *)

val supported_on : ?health:Cgc.health -> Cgc.t -> Hypar_ir.Dfg.t -> bool
(** {!supported}, plus: every node-op kind the DFG uses (multiply / ALU)
    has at least one live column whose first slot can host it, so the
    degraded data-path can actually execute the block. *)

val is_valid : ?health:Cgc.health -> Cgc.t -> Hypar_ir.Dfg.t -> t -> bool
(** Re-checks all constraints: dependences respected (same-cycle only via
    chaining), chain count and depth per cycle, memory ports per cycle —
    and, when [health] is given, that no placement lands on dead
    hardware. *)

val pp : Format.formatter -> t -> unit
