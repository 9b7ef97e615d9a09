(** Fine-grain (embedded FPGA) device model.

    The methodology is parametric in the fine-grain hardware: a usable
    area budget [A_FPGA] (the paper already folds the ~70% routability
    factor into the values it quotes — 1500 and 5000 units), an area cost
    per mapped DFG node ([size(u)], width-dependent), a delay per
    operation class in FPGA clock cycles, and a full-reconfiguration cost
    charged to every temporal partition. *)

type frame_params = {
  clb_area : int;  (** area units per CLB *)
  column_height : int;  (** CLBs per configuration column *)
  bits_per_clb : int;
  port_bits_per_cycle : int;
  header_bits : int;
}

type reconfig_model =
  | Flat  (** the calibrated constant [reconfig_cycles] per partition *)
  | Frame_full of frame_params
      (** full-device bit-stream per partition — the paper's stated model,
          priced from the device size *)
  | Frame_partial of frame_params
      (** per-column partial bit-stream — priced from the partition area *)

type t = {
  area : int;  (** usable area budget, the paper's [A_FPGA] *)
  area_scale : int;  (** area units per bit of operand width *)
  reconfig_cycles : int;  (** per temporal partition, in FPGA cycles *)
  reconfig_model : reconfig_model;
  alu_delay : int;
  mul_delay : int;
  div_delay : int;
  mem_delay : int;
  move_delay : int;
}

val default_frame_params : frame_params
(** 4 area units/CLB, 16-CLB columns, 64 bits/CLB, 64-bit port, 256-bit
    header — matching the bit-stream oracle's device ([test/bitstream.ml]). *)

val make :
  ?area_scale:int ->
  ?reconfig_cycles:int ->
  ?reconfig_model:reconfig_model ->
  ?alu_delay:int ->
  ?mul_delay:int ->
  ?div_delay:int ->
  ?mem_delay:int ->
  ?move_delay:int ->
  area:int ->
  unit ->
  t
(** Defaults: area scale 4, flat 24-cycle reconfiguration; delays
    ALU/MEM/MOVE 1, MUL 2, DIV 8. *)

val partition_reconfig_cycles : t -> partition_area:int -> int
(** Reconfiguration cost of loading one temporal partition, under the
    device's {!reconfig_model}.  [Flat] ignores the partition area;
    [Frame_full] prices the whole device; [Frame_partial] prices the
    columns the partition touches. *)

val op_area : t -> Hypar_ir.Instr.t -> int
(** [size(u)] of a DFG node: proportional to operand width scaled by
    [area_scale] — with [s = width * area_scale], an ALU costs [s] units,
    a multiplier [2s], a divider [4s], memory interface logic [s], a move
    [max 1 (s/2)]. *)

val op_delay : t -> Hypar_ir.Instr.t -> int
(** Delay of the node in FPGA cycles, per operation class. *)

val pp : Format.formatter -> t -> unit
