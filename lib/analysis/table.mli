(** Table-1-style rendering of the analysis results: the N most
    computation-intensive basic blocks with their execution frequency,
    operation weight and total weight, in decreasing total-weight order. *)

val render : ?top:int -> title:string -> Kernel.t -> string
(** A plain-text table matching the paper's Table 1 columns
    ([Basic Block no. | exec. freq. | Operations weight | Total weight]);
    [top] defaults to 8, the number of rows the paper prints per
    application. *)
