(** Sobel edge detector — a third multimedia workload (beyond the paper's
    two case studies) exercising the public API on a classic image-filter
    kernel: per interior pixel, the 3×3 Sobel gradients, an |Gx|+|Gy|
    magnitude and a threshold. Division-free; the hot block is the single
    inner-loop body. *)

val width : int
val height : int

val source : string
(** The Mini-C program. *)

val inputs : ?seed:int -> unit -> (string * int array) list
(** Deterministic synthetic image with edge-rich content. *)

val golden : (string * int array) list -> int array
(** Bit-exact reference: the [edges] output plane (0 or 255 per pixel;
    borders 0). *)

val prepared : unit -> Hypar_core.Flow.prepared
(** Compiled and profiled with [inputs ()] (memoised). *)

val timing_constraint : int
(** 500 000 FPGA cycles — infeasible all-FPGA on both paper areas,
    requiring the kernel to move to the CGC data-path. *)
