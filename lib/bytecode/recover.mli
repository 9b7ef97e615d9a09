(** CFG recovery and stack-to-register lowering.

    Turns the flat instruction stream of a parsed program back into a
    structured {!Hypar_ir.Cdfg.t}:

    - the stream is split at leaders (the first instruction, every branch
      target, every labelled instruction and every instruction after a
      block ender) into {!Hypar_ir.Block}s; a block that ends because the
      next instruction is a leader gets a synthesised fall-through jump;
    - the operand stack is simulated symbolically per block: pushes put
      immediates or temporaries on a compile-time stack, operations pop
      them and emit three-address instructions into fresh SSA-ish
      temporaries (Mini-C width rules), and values still on the stack at
      a block exit are spilled to canonical [stk_<i>] registers that the
      successor reloads — a parallel move, so swaps are safe.  Each
      [stk_<i>] register is sized (by fixpoint) to the widest operand
      any edge spills into that position; unreachable blocks are lowered
      under an assumed empty entry stack, with underflow padded by fresh
      registers rather than rejected;
    - declared locals are zero-initialised once at entry (the machine's
      semantics, and what makes {!Hypar_ir.Verify}'s defs-before-uses
      invariant hold by construction) — in the first block, or in a
      synthetic entry block when some branch targets instruction 0, so a
      back edge to the top of the program cannot re-run the init;
    - loop structure is recovered by {!Hypar_ir.Cdfg.make} from the
      rebuilt CFG's back edges.

    The deliberately copy-heavy lowering is decompilation residue;
    {!Hypar_ir.Passes.optimize}'s global copy/const propagation and CSE
    erase it (measured by the bench [bytecode] section).

    Ill-formed programs are rejected with a typed, positioned
    diagnostic. *)

type kind =
  | Empty_program  (** no instructions at all *)
  | Duplicate_label of string
  | Unknown_label of string  (** a branch targets no instruction *)
  | Label_past_end of string  (** label after the last instruction *)
  | Fallthrough_off_end  (** the last instruction can fall through *)
  | Stack_underflow of string  (** operation pops an empty stack *)
  | Stack_overflow of int  (** static stack depth exceeds the limit *)
  | Stack_mismatch of { label : string; expected : int; got : int }
      (** two paths reach [label] with different stack depths *)
  | Unknown_array of string
  | Unknown_local of string
  | Const_store of string  (** [astore] to a [.const] array *)

type diag = { dpos : Prog.pos; dkind : kind }

val message : kind -> string

val cdfg : Prog.t -> (Hypar_ir.Cdfg.t, diag) result
(** Recovers the CDFG, or reports the first diagnostic.  The result
    satisfies {!Hypar_ir.Verify} invariants by construction (checked by
    the driver when verification is on). *)
