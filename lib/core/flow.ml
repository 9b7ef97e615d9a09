module Profiling = Hypar_profiling

type prepared = {
  cdfg : Hypar_ir.Cdfg.t;
  profile : Profiling.Profile.t;
  interp : Profiling.Interp.result;
}

let profiled ?backend ?max_steps ?poll ?inputs cdfg =
  let interp = Profiling.Profile.run ?backend ?max_steps ?poll ?inputs cdfg in
  let profile = Profiling.Profile.of_result cdfg interp in
  { cdfg; profile; interp }

let prepare ?backend ?name ?simplify ?verify_ir ?max_steps ?poll ?(inputs = [])
    source =
  profiled ?backend ?max_steps ?poll ~inputs
    (Hypar_minic.Driver.compile_exn ?name ?simplify ?verify_ir source)

exception Unsupported_input of string

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Register ids index the liveness bitsets and the profiler's register
   file, which are sized by the largest id; both frontends number
   registers densely from 0.  A serialised CDFG is held to a range that
   keeps those tables small. *)
let max_register_id = (1 lsl 20) - 1

(* a serialised CDFG carries no source positions: its errors sit at 1:1 *)
let ir_error name msg =
  raise
    (Hypar_ir.Frontend.Error { name = Some name; err = { line = 1; col = 1; msg } })

let check_register_ids name cdfg =
  let check (v : Hypar_ir.Instr.var) =
    if v.vid < 0 || v.vid > max_register_id then
      ir_error name
        (Printf.sprintf "register %s has id %d, outside 0..%d" v.vname v.vid
           max_register_id)
  in
  Array.iter (Hypar_ir.Block.iter_vars check)
    (Hypar_ir.Cfg.blocks (Hypar_ir.Cdfg.cfg cdfg))

let load ?(raw = false) ?verify path =
  let name = Filename.basename path in
  if Filename.check_suffix path ".ir" then begin
    let cdfg =
      try Hypar_ir.Serialize.of_string (read_file path)
      with Hypar_ir.Serialize.Parse_error msg -> ir_error name msg
    in
    check_register_ids name cdfg;
    if Option.value verify ~default:!Hypar_ir.Passes.verify_passes then
      Hypar_ir.Verify.check_exn ~context:name cdfg;
    cdfg
  end
  else if Filename.check_suffix path ".hbc" then
    Hypar_bytecode.Driver.compile_exn ~name ~optimize:(not raw)
      ?verify_ir:verify (read_file path)
  else if Filename.check_suffix path ".mc" then
    Hypar_minic.Driver.compile_exn ~name ~simplify:(not raw) ?verify_ir:verify
      (read_file path)
  else raise (Unsupported_input path)

let prepare_file ?backend ?verify_ir ?max_steps ?poll path =
  profiled ?backend ?max_steps ?poll (load ?verify:verify_ir path)

let load_error_message = function
  | Hypar_ir.Frontend.Error { name; err } -> Hypar_ir.Frontend.message name err
  | Unsupported_input path ->
    Printf.sprintf
      "%s: unsupported input (expected .mc Mini-C, .hbc bytecode or .ir \
       serialised CDFG)"
      path
  | e -> Printexc.to_string e

let partition platform ~timing_constraint prepared =
  Engine.run platform ~timing_constraint prepared.cdfg prepared.profile
