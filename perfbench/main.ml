(* The repository benchmark.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   NAME is paper_flow, explore_sweep, serve_mix, or all (each workload in
   its own process, one after the other).  --trace 0 times the workload
   untraced and reports the end-to-end metrics; --trace 1 reports the
   per-layer metrics.  The last line of the output is the JSON result.
   See perfbench/README.md. *)

let started = Unix.gettimeofday ()

let workloads : (string * (module Perfbench.Harness.WORKLOAD)) list =
  [ ("paper_flow", (module Perfbench.Paper_flow));
    ("explore_sweep", (module Perfbench.Explore_sweep));
    ("serve_mix", (module Perfbench.Serve_mix)) ]

(* [all]: every workload in a child process of its own, so that each
   peak-memory figure is that workload's alone. *)
let run_all argv =
  List.fold_left
    (fun code (name, _) ->
      let args =
        Array.map (fun a -> if a = "all" then name else a) argv
      in
      let pid =
        Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
          Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> code
      | _ -> 1)
    0 workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME paper_flow | explore_sweep | serve_mix | all");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from (default 1)");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0, default) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload = "all" then exit (run_all Sys.argv);
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some (module W) ->
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    Perfbench.Harness.run
      (module W)
      { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }
      ~started
