(** Declarative fault model for hybrid-platform resilience studies.

    A {!spec} is a seeded list of faults describing what broke: dead CGC
    nodes or functional units, whole-CGC loss, FPGA area degradation,
    communication-channel slowdown, and transient per-evaluation
    failures.  Specs are parsed and printed by {!Spec}, applied to a
    platform by {!Degrade}, and consulted by the hardened explore driver
    for transient-failure injection. *)

type unit_kind =
  | Mult  (** only the node's multiplier is dead *)
  | Alu  (** only the node's ALU is dead *)
  | Both  (** the whole node is dead — its column truncates there *)

type fault =
  | Dead_node of { cgc : int; row : int; col : int; unit_kind : unit_kind }
      (** a node of CGC [cgc] at [row],[col] (0-based) lost [unit_kind] *)
  | Dead_cgc of int  (** a whole CGC component is dead *)
  | Area_loss of [ `Percent of int | `Units of int ]
      (** FPGA area shrinks by a percentage or an absolute CLB count *)
  | Comm_slowdown of int
      (** communication costs scale to this percentage (>= 100) *)
  | Transient of { permille : int; max_failures : int }
      (** each evaluation fails with probability [permille]/1000, at most
          [max_failures] times per point — deterministic given the seed *)

type spec = { seed : int; faults : fault list }

val unit_kind_string : unit_kind -> string

val fault_string : fault -> string
(** One fault in the {!Spec} text syntax, e.g. ["dead-node 0 1 1 mult"]. *)

val transient_should_fail : spec -> key:string -> attempt:int -> bool
(** Whether the [attempt]-th (1-based) evaluation of the work item
    identified by [key] should be failed by fault injection.  Pure
    function of [(spec.seed, key, attempt)]: re-runs and resumed runs see
    the same fault pattern. *)

val hash : [ `Int of int | `Str of string ] list -> int
(** FNV-1a (30-bit) over the parts in order: an integer contributes its
    low four bytes, least significant first, a string its bytes.  The
    one hash behind every seeded fault decision, here and in the serve
    chaos specs. *)
