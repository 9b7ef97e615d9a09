type error = Hypar_ir.Frontend.error = { line : int; col : int; msg : string }

exception Frontend_error = Hypar_ir.Frontend.Error

let of_pos (pos : Token.pos) msg = { line = pos.line; col = pos.col; msg }

let span name f = Hypar_obs.Span.with_ ~cat:"minic" name f

let parse src =
  match span "minic.parse" (fun () -> Parser.parse_program src) with
  | ast -> Ok ast
  | exception (Lexer.Error { pos; msg } | Parser.Error { pos; msg }) ->
    Error (of_pos pos msg)

let compile_ast ?name ?(simplify = true) ?verify_ir ast =
  let verify =
    Option.value verify_ir ~default:!Hypar_ir.Passes.verify_passes
  in
  try
    match span "minic.typecheck" (fun () -> Typecheck.check ast) with
    | Error e -> Error (of_pos e.Typecheck.pos e.Typecheck.msg)
    | Ok () ->
      let inlined = span "minic.inline" (fun () -> Inline.program ast) in
      let cdfg = span "minic.lower" (fun () -> Lower.program ?name inlined) in
      (match Hypar_ir.Cdfg.validate cdfg with
      | Error msg -> Error { line = 0; col = 0; msg = "lowering produced: " ^ msg }
      | Ok () ->
        if verify then Hypar_ir.Verify.check_exn ~context:"lower" cdfg;
        let cdfg =
          if simplify then
            span "minic.optimize" (fun () ->
                Hypar_ir.Passes.optimize ~verify cdfg)
          else cdfg
        in
        Ok cdfg)
  with
  | Inline.Recursive f ->
    Error { line = 0; col = 0; msg = Printf.sprintf "recursive function %S" f }
  | Invalid_argument msg -> Error { line = 0; col = 0; msg }

let compile ?name ?simplify ?verify_ir src =
  span "minic.compile" @@ fun () ->
  Result.bind (parse src) (compile_ast ?name ?simplify ?verify_ir)

let compile_exn ?name ?simplify ?verify_ir src =
  match compile ?name ?simplify ?verify_ir src with
  | Ok cdfg -> cdfg
  | Error err -> raise (Frontend_error { name; err })
