(** The paper's own experiment as a correctness check: Tables 2 and 3
    recomputed on the apps' default inputs and compared with the final
    cycles pinned in [perfbench/expected.json], plus the model's error
    against the published reductions. *)

type row = {
  app : string;  (** ["ofdm"] (Table 2) or ["jpeg"] (Table 3) *)
  table : int;
  final_cycles : int list;  (** one per {!Hypar_core.Platform.paper_configs} entry *)
  paper_reduction_percent : float list;  (** published, same order *)
}

val load : string -> row list
(** Reads the expected file.  Raises [Failure] when it is malformed. *)

val label : Hypar_core.Platform.t -> string
(** e.g. ["A_FPGA=1500 two 2x2"]. *)

type outcome = {
  mismatches : string list;  (** empty when every pinned value matched *)
  report : string list;  (** simulated vs published reduction, one line per configuration *)
}

val check : row list -> outcome
(** Prepares each row's app on its default inputs, checks the program's
    outputs against the app's reference model, partitions it on the four
    paper configurations and compares the final cycles with the pinned
    ones. *)
