(* Executable proof that CGC schedules preserve semantics: executing a
   block's instructions in *schedule order* (cycle by cycle, chained ops
   after their producers) yields exactly the same registers and memory as
   executing them in program order. *)

module Ir = Hypar_ir
module Cgc = Hypar_coarsegrain.Cgc
module Schedule = Hypar_coarsegrain.Schedule

let cgc2 = Cgc.two_by_two 2

(* a tiny straight-line evaluator over one DFG *)
let execute_order dfg order =
  let regs : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let mem : (string, int array) Hashtbl.t = Hashtbl.create 4 in
  let array_of arr =
    match Hashtbl.find_opt mem arr with
    | Some a -> a
    | None ->
      let a = Array.init 64 (fun i -> (i * 7) mod 23) in
      Hashtbl.replace mem arr a;
      a
  in
  let read = function
    | Ir.Instr.Imm n -> n
    | Ir.Instr.Var v -> (
      match Hashtbl.find_opt regs v.vid with
      | Some x -> x
      | None ->
        (* live-ins: a deterministic value per variable *)
        (v.vid * 31) mod 97)
  in
  let write v x = Hashtbl.replace regs v.Ir.Instr.vid x in
  List.iter
    (fun id ->
      match (Ir.Dfg.node dfg id).Ir.Dfg.instr with
      | Ir.Instr.Bin { dst; op; a; b } ->
        write dst (Ir.Types.eval_alu_op op (read a) (read b))
      | Ir.Instr.Mul { dst; a; b } -> write dst (read a * read b)
      | Ir.Instr.Un { dst; op; a } -> write dst (Ir.Types.eval_un_op op (read a))
      | Ir.Instr.Mov { dst; src } -> write dst (read src)
      | Ir.Instr.Select { dst; cond; if_true; if_false } ->
        write dst (if read cond <> 0 then read if_true else read if_false)
      | Ir.Instr.Load { dst; arr; index } ->
        let a = array_of arr in
        write dst a.(abs (read index) mod Array.length a)
      | Ir.Instr.Store { arr; index; value } ->
        let a = array_of arr in
        a.(abs (read index) mod Array.length a) <- read value
      | Ir.Instr.Div _ | Ir.Instr.Rem _ -> ())
    order;
  let regs_list =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) regs [] |> List.sort compare
  in
  let mem_list =
    Hashtbl.fold (fun k v acc -> (k, Array.to_list v) :: acc) mem []
    |> List.sort compare
  in
  (regs_list, mem_list)

(* schedule order: earliest (cycle, chain depth) first among the nodes
   whose DFG predecessors have already issued — free moves share their
   producer's cycle, so a plain sort would put them too early *)
let schedule_order dfg (s : Schedule.t) =
  let n = Ir.Dfg.node_count dfg in
  let key v =
    let p = s.Schedule.placements.(v) in
    (p.Schedule.cycle, p.Schedule.depth, v)
  in
  let issued = Array.make n false in
  let order = ref [] in
  for _ = 1 to n do
    let best = ref None in
    for v = 0 to n - 1 do
      if
        (not issued.(v))
        && List.for_all (fun p -> issued.(p)) (Ir.Dfg.preds dfg v)
      then
        match !best with
        | Some b when key b <= key v -> ()
        | _ -> best := Some v
    done;
    match !best with
    | Some v ->
      issued.(v) <- true;
      order := v :: !order
    | None -> Alcotest.fail "schedule order: no issuable node (cycle?)"
  done;
  List.rev !order

let check_dfg name dfg =
  if Schedule.supported dfg then begin
    let s = Schedule.schedule cgc2 dfg in
    let program = execute_order dfg (List.init (Ir.Dfg.node_count dfg) Fun.id) in
    let scheduled = execute_order dfg (schedule_order dfg s) in
    if program <> scheduled then
      Alcotest.failf "%s: schedule order changes the block's semantics" name
  end

let test_random_dfgs () =
  for seed = 30 to 60 do
    check_dfg
      (Printf.sprintf "random seed %d" seed)
      (Hypar_apps.Synth.random_dfg ~seed ~nodes:70 ())
  done

let test_app_blocks () =
  List.iter
    (fun (name, prepared) ->
      let cdfg = prepared.Hypar_core.Flow.cdfg in
      List.iter
        (fun i ->
          check_dfg (Printf.sprintf "%s BB%d" name i) (Ir.Cdfg.dfg cdfg i))
        (Ir.Cdfg.block_ids cdfg))
    [
      ("ofdm", Hypar_apps.Ofdm.prepared ());
      ("jpeg", Hypar_apps.Jpeg.prepared ());
      ("sobel", Hypar_apps.Sobel.prepared ());
      ("adpcm", Hypar_apps.Adpcm.prepared ());
    ]

let suite =
  [
    Alcotest.test_case "random DFGs execute identically" `Quick test_random_dfgs;
    Alcotest.test_case "every app block executes identically" `Quick test_app_blocks;
  ]
