(** The generic hybrid reconfigurable platform of Figure 1: fine-grain
    (FPGA) blocks, a coarse-grain CGC data-path, a shared data memory and
    the clock relationship between the two domains. *)

type t = {
  name : string;
  fpga : Hypar_finegrain.Fpga.t;
  cgc : Hypar_coarsegrain.Cgc.t;
  cgc_health : Hypar_coarsegrain.Cgc.health option;
      (** [None] (the default) means fully healthy; [Some h] restricts the
          coarse-grain mapping to the live slots of [h] — see
          [Hypar_resilience.Degrade]. *)
  clock_ratio : int;  (** [T_FPGA / T_CGC]; the paper assumes 3 *)
  comm : Comm.model;
}

val make :
  ?name:string ->
  ?clock_ratio:int ->
  ?comm:Comm.model ->
  ?cgc_health:Hypar_coarsegrain.Cgc.health ->
  fpga:Hypar_finegrain.Fpga.t ->
  cgc:Hypar_coarsegrain.Cgc.t ->
  unit ->
  t
(** Defaults: clock ratio 3 (paper §4), {!Comm.default}, healthy CGC
    data-path.  Raises [Invalid_argument] when [cgc_health] does not match
    the CGC geometry. *)

val of_geometry :
  area:int -> cgcs:int -> rows:int -> cols:int -> clock_ratio:int -> t
(** A healthy platform with an FPGA of [area] units and [cgcs] CGCs of
    [rows] x [cols] nodes, other parameters as {!make}'s defaults. *)

val degraded : t -> bool
(** [true] when the platform carries a health mask that actually disables
    hardware. *)

val paper_configs : unit -> t list
(** The four platform configurations of Tables 2–3:
    [A_FPGA ∈ {1500, 5000}] × data-paths of two / three 2×2 CGCs. *)

val cgc_to_fpga_cycles : t -> int -> int
(** Convert CGC cycles to FPGA cycle units (ceiling division by the clock
    ratio). *)

val pp : Format.formatter -> t -> unit
