module Flow = Hypar_core.Flow
module Engine = Hypar_core.Engine
module Platform = Hypar_core.Platform
module Energy = Hypar_core.Energy

type metrics = {
  cgc_desc : string;
  initial : Engine.times;
  final : Engine.times;
  moved : int list;
  skipped : int;
  status : Engine.status;
  met : bool;
  reduction : float;
  energy : int;
}

let platform_of (p : Space.point) =
  Platform.of_geometry ~area:p.area ~cgcs:p.cgcs ~rows:p.rows ~cols:p.cols
    ~clock_ratio:p.clock_ratio

(* every failed point names the raising constructor and its own
   coordinates, so a failure in a JSON/CSV report is reproducible without
   the sweep's command line *)
let error_string (p : Space.point) exn =
  let message =
    match exn with
    | Invalid_argument msg -> "Invalid_argument: " ^ msg
    | Failure msg -> "Failure: " ^ msg
    | Hypar_profiling.Interp.Fuel_exhausted { steps } ->
      Printf.sprintf "Fuel_exhausted: point budget spent after %d steps" steps
    | Engine.Delta_mismatch { field; full; incremental; moved } ->
      (* the debug cross-check tripped: the engine's delta-updated time
         diverged from the full recharacterisation at this point *)
      Printf.sprintf
        "Delta_mismatch: incremental %s=%d but full recompute=%d after \
         moving [%s]"
        field incremental full
        (String.concat ";" (List.map string_of_int moved))
    | Hypar_ir.Verify.Failed { context; violations } ->
      Printf.sprintf "Verify.Failed: IR verification failed after %S: %s"
        context
        (String.concat "; "
           (String.split_on_char '\n'
              (String.trim (Hypar_ir.Verify.report violations))))
    | exn -> Printexc.to_string exn
  in
  Printf.sprintf "%s [point %s]" message (Space.point_key p)

let platform ?faults p =
  let platform = platform_of p in
  match faults with
  | None -> platform
  | Some spec -> (
    (* non-strict: a sweep point smaller than the faulted hardware simply
       ignores the inapplicable faults *)
    match Hypar_resilience.Degrade.apply ~strict:false spec platform with
    | Ok pl -> pl
    | Error msg -> failwith msg)

type shared = {
  trajectory : Engine.trajectory;
  energy : Energy.table;
  cgc_desc : string;
}

let energy_table (app : Engine.app_layer) (fine : Engine.fine_layer) =
  Energy.table Energy.default app.Engine.cdfg
    ~freq:(Array.get app.Engine.freq)
    ~partitions:(Array.get fine.Engine.partition_count)
    ~words:(Engine.block_words app)

let share ~plan ~energy (c : Engine.characterisation) =
  {
    trajectory = Engine.trajectory plan c;
    energy;
    cgc_desc = Hypar_coarsegrain.Cgc.describe c.Engine.platform.Platform.cgc;
  }

let point_span (p : Space.point) f =
  if Hypar_obs.Sink.enabled () then
    Hypar_obs.Span.with_ ~cat:"explore" "explore.point"
      ~args:
        [
          ("area", Hypar_obs.Event.Int p.area);
          ("cgcs", Hypar_obs.Event.Int p.cgcs);
          ("rows", Hypar_obs.Event.Int p.rows);
          ("cols", Hypar_obs.Event.Int p.cols);
          ("clock_ratio", Hypar_obs.Event.Int p.clock_ratio);
          ("timing", Hypar_obs.Event.Int p.timing);
        ]
      f
  else f ()

let answer ?point_fuel shared (p : Space.point) =
  point_span p @@ fun () ->
  match
    let s = match shared with Ok s -> s | Error e -> raise e in
    let r =
      Engine.cut ?max_moves:point_fuel ~timing_constraint:p.timing s.trajectory
    in
    {
      cgc_desc = s.cgc_desc;
      initial = r.Engine.initial;
      final = r.Engine.final;
      moved = r.Engine.moved;
      skipped = List.length r.Engine.skipped;
      status = r.Engine.status;
      met = Engine.met r;
      reduction = Engine.reduction_percent r;
      energy = Energy.total s.energy ~moved:r.Engine.moved;
    }
  with
  | m -> Ok m
  | exception Sys.Break -> raise Sys.Break
  | exception e -> Error (error_string p e)

let verify_input (prepared : Flow.prepared) =
  if !Hypar_ir.Passes.verify_passes then
    Hypar_ir.Verify.check_exn ~context:"engine input" prepared.Flow.cdfg

let evaluate ?faults ?point_fuel (prepared : Flow.prepared) p =
  let shared =
    match
      verify_input prepared;
      let cdfg = prepared.Flow.cdfg and profile = prepared.Flow.profile in
      let c = Engine.characterise (platform ?faults p) cdfg profile in
      let analysis = Hypar_analysis.Kernel.analyse cdfg profile in
      share
        ~plan:(Engine.plan ~analysis c.Engine.app c.Engine.coarse)
        ~energy:(energy_table c.Engine.app c.Engine.fine)
        c
    with
    | s -> Ok s
    | exception Sys.Break -> raise Sys.Break
    | exception e -> Error e
  in
  answer ?point_fuel shared p
