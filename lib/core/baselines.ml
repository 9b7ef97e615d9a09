module Analysis = Hypar_analysis

type strategy =
  | Paper_greedy
  | Benefit_greedy
  | Loop_greedy
  | Random_order of int
  | Exhaustive of int

type outcome = {
  strategy : strategy;
  name : string;
  moved : int list;
  met : bool;
  t_total : int;
  evaluations : int;
}

let name_of = function
  | Paper_greedy -> "paper greedy (Eq.1 weight)"
  | Benefit_greedy -> "benefit greedy"
  | Loop_greedy -> "loop greedy (whole loops)"
  | Random_order seed -> Printf.sprintf "random order (seed %d)" seed
  | Exhaustive k -> Printf.sprintf "exhaustive (top %d)" k

let shuffle seed l =
  let a = Array.of_list l in
  let state = ref (if seed = 0 then 1 else seed) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* All subsets of the top-k kernels; prefer feasible with fewest moves,
   then lowest total; else lowest total. *)
let exhaustive evaluate timing_constraint candidates =
  let cands = Array.of_list candidates in
  let k = Array.length cands in
  if k > 20 then invalid_arg "Baselines: exhaustive beyond top-20 kernels";
  let best = ref None in
  let better (subset, (times : Engine.times)) =
    let met = times.Engine.t_total <= timing_constraint in
    let key = (not met, (if met then List.length subset else 0), times.Engine.t_total) in
    match !best with
    | None -> best := Some (subset, times, met, key)
    | Some (_, _, _, best_key) ->
      if key < best_key then best := Some (subset, times, met, key)
  in
  for mask = 0 to (1 lsl k) - 1 do
    let subset = ref [] in
    for bit = k - 1 downto 0 do
      if mask land (1 lsl bit) <> 0 then subset := cands.(bit) :: !subset
    done;
    better (!subset, evaluate !subset)
  done;
  match !best with
  | Some (subset, times, met, _) -> (subset, times, met, 1 lsl k)
  | None -> assert false

(* Every strategy of one comparison reads one characterisation and one
   kernel analysis, and the probes one from-scratch Eq.-2 oracle, built
   only if a strategy asks for it. *)
let compare_all
    ?(strategies =
      [ Paper_greedy; Benefit_greedy; Loop_greedy; Random_order 1; Exhaustive 12 ])
    platform ~timing_constraint cdfg profile =
  let char = Engine.characterise platform cdfg profile in
  let analysis = Analysis.Kernel.analyse cdfg profile in
  let evaluate = lazy (Engine.evaluate platform cdfg profile) in
  (* the kernels the CGC can run, in Eq.-1 order *)
  let movable =
    List.filter
      (fun (k : Analysis.Kernel.entry) ->
        char.Engine.coarse.Engine.latency.(k.block_id) <> None)
      analysis.Analysis.Kernel.kernels
  in
  (* a greedy strategy is a kernel order cut from the engine's own loop:
     one Eq.-2 read for the all-FPGA start and one per step *)
  let cut_order ?granularity order =
    let plan =
      Engine.plan ?granularity
        ~analysis:{ analysis with Analysis.Kernel.kernels = order }
        char.Engine.app char.Engine.coarse
    in
    let r = Engine.trajectory plan char |> Engine.cut ~timing_constraint in
    (r.Engine.moved, r.Engine.final, Engine.met r, 1 + List.length r.Engine.steps)
  in
  let run strategy =
    let moved, times, met, evaluations =
      match strategy with
      | Paper_greedy -> cut_order movable
      | Loop_greedy -> cut_order ~granularity:`Loop movable
      | Random_order seed -> cut_order (shuffle seed movable)
      | Benefit_greedy ->
        let evaluate = Lazy.force evaluate in
        let base = (evaluate []).Engine.t_total in
        let benefits =
          List.map
            (fun (k : Analysis.Kernel.entry) ->
              (k, base - (evaluate [ k.block_id ]).Engine.t_total))
            movable
        in
        let order =
          List.map fst
            (List.sort (fun (_, b1) (_, b2) -> compare b2 b1) benefits)
        in
        let moved, times, met, evals = cut_order order in
        (moved, times, met, evals + List.length movable)
      | Exhaustive k ->
        List.filteri (fun i _ -> i < k) movable
        |> List.map (fun (k : Analysis.Kernel.entry) -> k.block_id)
        |> exhaustive (Lazy.force evaluate) timing_constraint
    in
    {
      strategy;
      name = name_of strategy;
      moved;
      met;
      t_total = times.Engine.t_total;
      evaluations;
    }
  in
  List.map run strategies
