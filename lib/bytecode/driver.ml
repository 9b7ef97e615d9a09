type error = Hypar_ir.Frontend.error = { line : int; col : int; msg : string }

exception Frontend_error = Hypar_ir.Frontend.Error

let span name f = Hypar_obs.Span.with_ ~cat:"bytecode" name f

let error_of_diag (d : Recover.diag) =
  { line = d.dpos.Prog.line; col = d.dpos.Prog.col; msg = Recover.message d.dkind }

let compile ?name ?(optimize = true) ?verify_ir src =
  let verify = Option.value verify_ir ~default:!Hypar_ir.Passes.verify_passes in
  try
    span "bytecode.compile" @@ fun () ->
    match span "bytecode.parse" (fun () -> Parse.program ?name src) with
    | Error e -> Error e
    | Ok prog -> (
      match span "bytecode.recover" (fun () -> Recover.cdfg prog) with
      | Error d -> Error (error_of_diag d)
      | Ok cdfg ->
        if verify then Hypar_ir.Verify.check_exn ~context:"recover" cdfg;
        let cdfg =
          if optimize then
            span "bytecode.optimize" (fun () -> Hypar_ir.Passes.optimize ~verify cdfg)
          else cdfg
        in
        Ok cdfg)
  with Hypar_ir.Cfg.Malformed msg ->
    Error { line = 0; col = 0; msg = "recovery produced: " ^ msg }

let compile_exn ?name ?optimize ?verify_ir src =
  match compile ?name ?optimize ?verify_ir src with
  | Ok cdfg -> cdfg
  | Error err -> raise (Frontend_error { name; err })
