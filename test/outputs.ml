(* What a program leaves behind: its return value and the final contents
   of every array.  The semantics tests compare it before and after a
   transformation. *)

let testable = Alcotest.(pair (option int) (list (pair string (array int))))

let of_cdfg ?inputs cdfg =
  let r = Hypar_profiling.Interp.run ?inputs cdfg in
  (r.Hypar_profiling.Interp.return_value, r.arrays)

let check what before after = Alcotest.check testable what (of_cdfg before) (of_cdfg after)
