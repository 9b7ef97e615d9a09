module Interp = Hypar_profiling.Interp

type finding = { oracle : string; signature : string; detail : string }
type verdict = Pass | Fail of finding

exception Found of finding

let fail oracle signature detail = raise (Found { oracle; signature; detail })

(* Everything a run can do, with errors reified so outcomes can be
   compared across backends and variants. *)
type outcome =
  | Value of Interp.result
  | Runtime of string
  | Exhausted of int

let describe = function
  | Value _ -> "a clean run"
  | Runtime m -> Printf.sprintf "runtime error %S" m
  | Exhausted steps -> Printf.sprintf "fuel exhaustion after %d steps" steps

(* Each pipeline stage runs under a label so a crash or a Verify failure
   is attributed to the stage that raised it rather than to the oracle
   as a whole. *)
let stage name f =
  match f () with
  | v -> v
  | exception Found f -> raise (Found f)
  | exception Hypar_ir.Verify.Failed { context; violations } ->
    fail ("verify/" ^ name)
      ("verify/" ^ name)
      (Printf.sprintf "%s: %s" context (Hypar_ir.Verify.report violations))
  | exception e ->
    fail ("crash/" ^ name)
      ("crash:" ^ Printexc.to_string e)
      (Printexc.to_string e)

let outcome backend fuel cdfg =
  let run =
    match backend with
    | `Tree -> Interp.run ?fuel:None ~max_steps:fuel
    | `Compiled -> Hypar_profiling.Exec.run ?fuel:None ~max_steps:fuel
  in
  match run cdfg with
  | r -> Value r
  | exception Interp.Runtime_error m -> Runtime m
  | exception Interp.Fuel_exhausted { steps } -> Exhausted steps

(* Which result field disagrees first, for the human-readable detail. *)
let field_diff (a : Interp.result) (b : Interp.result) =
  if a.return_value <> b.return_value then "return_value differs"
  else if a.arrays <> b.arrays then "final array contents differ"
  else if a.exec_freq <> b.exec_freq then "exec_freq differs"
  else if a.mem_reads <> b.mem_reads then "mem_reads differs"
  else if a.mem_writes <> b.mem_writes then "mem_writes differs"
  else if a.edge_freq <> b.edge_freq then "edge_freq differs"
  else "instrs/blocks counters differ"

(* Tree walker vs compiled executor on one CDFG: the contract is full
   structural equality of the result, including error behaviour. *)
let backend_oracle variant fuel cdfg =
  let name = "backend/" ^ variant in
  let tree = stage name (fun () -> outcome `Tree fuel cdfg) in
  let compiled = stage name (fun () -> outcome `Compiled fuel cdfg) in
  (match (tree, compiled) with
  | Value a, Value b ->
    if a <> b then fail name (name ^ ":result") (field_diff a b)
  | a, b ->
    if a <> b then
      fail name
        (name ^ ":outcome")
        (Printf.sprintf "tree produced %s, compiled produced %s" (describe a)
           (describe b)));
  tree

(* Cross-variant comparison on a clean baseline: same return value and
   same final contents for every baseline array (variants may add
   internal state, but must preserve everything the baseline exposes). *)
let semantic_oracle name base variant =
  match variant with
  | Runtime _ | Exhausted _ ->
    fail name
      (name ^ ":outcome")
      (Printf.sprintf "clean baseline but the %s variant produced %s" name
         (describe variant))
  | Value v ->
    let b =
      match base with Value b -> b | _ -> assert false (* caller checked *)
    in
    if b.Interp.return_value <> v.Interp.return_value then
      fail name
        (name ^ ":semantics")
        (Printf.sprintf "return value diverged: %s vs %s"
           (match b.return_value with Some n -> string_of_int n | None -> "none")
           (match v.return_value with Some n -> string_of_int n | None -> "none"));
    List.iter
      (fun (aname, contents) ->
        match List.assoc_opt aname v.Interp.arrays with
        | None ->
          fail name
            (name ^ ":semantics")
            (Printf.sprintf "array %S missing from the %s variant" aname name)
        | Some c ->
          if c <> contents then
            fail name
              (name ^ ":semantics")
              (Printf.sprintf "array %S diverged" aname))
      b.Interp.arrays

let run ?(fuel = 2_000_000) ?(expect_clean = true) src =
  try
    let raw =
      stage "minic" (fun () ->
          match
            Hypar_minic.Driver.compile ~name:"fuzz" ~simplify:false
              ~verify_ir:true src
          with
          | Ok cdfg -> cdfg
          | Error e ->
            fail "frontend/minic" "frontend:minic"
              (Hypar_ir.Frontend.string_of_error e))
    in
    let opt =
      stage "optimize" (fun () -> Hypar_ir.Passes.optimize ~verify:true raw)
    in
    let bc =
      stage "bytecode" (fun () ->
          let hbc = Hypar_bytecode.Emit.to_string raw in
          match
            Hypar_bytecode.Driver.compile ~name:"fuzz" ~verify_ir:true hbc
          with
          | Ok cdfg -> cdfg
          | Error e ->
            fail "frontend/bytecode" "frontend:bytecode"
              (Hypar_ir.Frontend.string_of_error e))
    in
    let base = backend_oracle "-O0" fuel raw in
    (* variants get slack so a borderline baseline budget cannot read as
       a cross-variant divergence *)
    let o_opt = backend_oracle "-O" (fuel * 4) opt in
    let o_bc = backend_oracle "bytecode" (fuel * 4) bc in
    (match base with
    | Value _ ->
      semantic_oracle "optimize" base o_opt;
      semantic_oracle "bytecode" base o_bc
    | Runtime m ->
      if expect_clean then fail "termination" "runtime-error" m
    | Exhausted steps ->
      if expect_clean then
        fail "termination" "fuel-exhausted"
          (Printf.sprintf "baseline ran out of fuel after %d steps" steps));
    Pass
  with Found f -> Fail f

let verdict_to_string = function
  | Pass -> "pass"
  | Fail { oracle; signature; detail } ->
    Printf.sprintf "FAIL %s: %s (%s)" oracle signature detail
