module Ir = Hypar_ir

type model = { cycles_per_word : int; ports : int; fixed_overhead : int }

let default = { cycles_per_word = 1; ports = 2; fixed_overhead = 4 }

let make ?(cycles_per_word = default.cycles_per_word) ?(ports = default.ports)
    ?(fixed_overhead = default.fixed_overhead) () =
  if cycles_per_word < 0 || ports <= 0 || fixed_overhead < 0 then
    invalid_arg "Comm.make: invalid parameters";
  { cycles_per_word; ports; fixed_overhead }

let block_words live i =
  Ir.Live.live_in_count live i + Ir.Live.defs_live_out_count live i

let ceil_div a b = (a + b - 1) / b

let words_cost model words =
  model.fixed_overhead + ceil_div (words * model.cycles_per_word) model.ports

let transition_cycles model live ~edges ~on_cgc =
  List.fold_left
    (fun acc (((src, dst), count) : (int * int) * int) ->
      let src_cgc = on_cgc src and dst_cgc = on_cgc dst in
      if src_cgc = dst_cgc then acc
      else
        let words =
          if dst_cgc then Ir.Live.live_in_count live dst
          else Ir.Live.defs_live_out_count live src
        in
        acc + (count * words_cost model words))
    0 edges
