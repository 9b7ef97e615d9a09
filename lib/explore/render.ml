module Engine = Hypar_core.Engine

let selected_indices ?(pareto_only = false) (t : Driver.t) =
  let all = List.init (Array.length t.Driver.results) Fun.id in
  if pareto_only then List.filter (fun i -> t.Driver.pareto.(i)) all else all

let point_geom (p : Space.point) =
  Printf.sprintf "%d x %dx%d" p.Space.cgcs p.Space.rows p.Space.cols

let moved_string moved = String.concat " " (List.map string_of_int moved)

let met_counts (t : Driver.t) =
  Array.fold_left
    (fun n r ->
      match r.Driver.outcome with Ok m when m.Eval.met -> n + 1 | _ -> n)
    0 t.Driver.results

let pareto_count (t : Driver.t) =
  Array.fold_left (fun n f -> if f then n + 1 else n) 0 t.Driver.pareto

(* ---- text ---------------------------------------------------------------- *)

let text ?pareto_only (t : Driver.t) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* no jobs count here: reports are byte-identical across --jobs levels *)
  add "explore %s — %d points\n" t.Driver.workload
    (Array.length t.Driver.results);
  add "%8s %10s %6s %9s %24s %12s %12s %9s %12s %6s %6s %7s\n" "A_FPGA" "CGCs"
    "ratio" "timing" "status" "initial" "final" "reduction" "energy" "moved"
    "cache" "pareto";
  List.iter
    (fun i ->
      let r = t.Driver.results.(i) in
      let p = r.Driver.point in
      let cache = if r.Driver.cached then "hit" else "miss" in
      match r.Driver.outcome with
      | Ok m ->
        add "%8d %10s %6d %9d %24s %12d %12d %8.1f%% %12d %6d %6s %7s\n"
          p.Space.area m.Eval.cgc_desc p.Space.clock_ratio p.Space.timing
          (Engine.status_key m.Eval.status)
          m.Eval.initial.Engine.t_total m.Eval.final.Engine.t_total
          m.Eval.reduction m.Eval.energy
          (List.length m.Eval.moved)
          cache
          (if t.Driver.pareto.(i) then "*" else "")
      | Error msg ->
        add "%8d %10s %6d %9d %24s %s\n" p.Space.area (point_geom p)
          p.Space.clock_ratio p.Space.timing "FAILED" msg)
    (selected_indices ?pareto_only t);
  add "summary: %d/%d ok (%d met constraint), %d failed; cache: %d misses, %d hits\n"
    (Driver.ok_count t)
    (Array.length t.Driver.results)
    (met_counts t) (Driver.failed_count t) t.Driver.cache.Cache.misses
    t.Driver.cache.Cache.hits;
  add "pareto frontier (A_FPGA, t_total, energy): %d point%s\n" (pareto_count t)
    (if pareto_count t = 1 then "" else "s");
  let best label = function
    | None -> add "best %s: none\n" label
    | Some i ->
      let r = t.Driver.results.(i) in
      (match r.Driver.outcome with
      | Ok m ->
        add "best %s: %s -> t_total=%d energy=%d\n" label
          (Space.point_key r.Driver.point)
          m.Eval.final.Engine.t_total m.Eval.energy
      | Error _ -> ())
  in
  best "t_total" t.Driver.best_time;
  best "A_FPGA " t.Driver.best_area;
  best "energy " t.Driver.best_energy;
  Buffer.contents buf

(* ---- csv ----------------------------------------------------------------- *)

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let csv ?pareto_only (t : Driver.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "area,cgcs,rows,cols,clock_ratio,timing,status,met,initial,final,t_fpga,\
     t_coarse,t_comm,cycles_in_cgc,moved,reduction,energy,cache,pareto,error\n";
  List.iter
    (fun i ->
      let r = t.Driver.results.(i) in
      let p = r.Driver.point in
      let cache = if r.Driver.cached then "hit" else "miss" in
      let row =
        match r.Driver.outcome with
        | Ok m ->
          Printf.sprintf "%s,%b,%d,%d,%d,%d,%d,%d,%s,%.1f,%d,%s,%b,"
            (Engine.status_key m.Eval.status)
            m.Eval.met m.Eval.initial.Engine.t_total
            m.Eval.final.Engine.t_total m.Eval.final.Engine.t_fpga
            m.Eval.final.Engine.t_coarse m.Eval.final.Engine.t_comm
            m.Eval.final.Engine.t_coarse_cgc
            (moved_string m.Eval.moved)
            m.Eval.reduction m.Eval.energy cache
            t.Driver.pareto.(i)
        | Error msg ->
          Printf.sprintf "failed,,,,,,,,,,,%s,%b,%s" cache false
            (csv_field msg)
      in
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%s\n" p.Space.area p.Space.cgcs
           p.Space.rows p.Space.cols p.Space.clock_ratio p.Space.timing row))
    (selected_indices ?pareto_only t);
  Buffer.contents buf

(* ---- json ---------------------------------------------------------------- *)

let json ?pareto_only (t : Driver.t) =
  let selected = selected_indices ?pareto_only t in
  (* original result index -> position in the emitted array *)
  let emitted_pos =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun pos i -> Hashtbl.replace tbl i pos) selected;
    tbl
  in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"workload\": \"%s\",\n" (Hypar_obs.Jsonv.escape t.Driver.workload);
  add "  \"digest\": \"%s\",\n" (Lazy.force t.Driver.digest);
  add "  \"points\": %d,\n" (Array.length t.Driver.results);
  add "  \"ok\": %d,\n" (Driver.ok_count t);
  add "  \"met\": %d,\n" (met_counts t);
  add "  \"failed\": %d,\n" (Driver.failed_count t);
  add "  \"cache\": {\"hits\": %d, \"misses\": %d},\n" t.Driver.cache.Cache.hits
    t.Driver.cache.Cache.misses;
  add "  \"results\": [\n";
  let entry i =
    let r = t.Driver.results.(i) in
    let p = r.Driver.point in
    let config =
      Printf.sprintf
        "\"area\": %d, \"cgcs\": %d, \"rows\": %d, \"cols\": %d, \
         \"clock_ratio\": %d, \"timing\": %d"
        p.Space.area p.Space.cgcs p.Space.rows p.Space.cols p.Space.clock_ratio
        p.Space.timing
    in
    let cache = if r.Driver.cached then "hit" else "miss" in
    match r.Driver.outcome with
    | Ok m ->
      Printf.sprintf
        "    {%s, \"status\": \"ok\", \"engine\": \"%s\", \"met\": %b, \
         \"initial\": %d, \"final\": %d, \"t_fpga\": %d, \"t_coarse\": %d, \
         \"t_comm\": %d, \"cycles_in_cgc\": %d, \"moved\": [%s], \
         \"reduction\": %.1f, \"energy\": %d, \"cache\": \"%s\", \
         \"pareto\": %b}"
        config
        (Engine.status_key m.Eval.status)
        m.Eval.met m.Eval.initial.Engine.t_total m.Eval.final.Engine.t_total
        m.Eval.final.Engine.t_fpga m.Eval.final.Engine.t_coarse
        m.Eval.final.Engine.t_comm m.Eval.final.Engine.t_coarse_cgc
        (String.concat ", " (List.map string_of_int m.Eval.moved))
        m.Eval.reduction m.Eval.energy cache
        t.Driver.pareto.(i)
    | Error msg ->
      Printf.sprintf
        "    {%s, \"status\": \"failed\", \"cache\": \"%s\", \"error\": \"%s\"}"
        config cache (Hypar_obs.Jsonv.escape msg)
  in
  Buffer.add_string buf (String.concat ",\n" (List.map entry selected));
  add "\n  ],\n";
  add "  \"pareto\": [%s],\n"
    (String.concat ", "
       (List.filter_map
          (fun i ->
            if t.Driver.pareto.(i) then
              Option.map string_of_int (Hashtbl.find_opt emitted_pos i)
            else None)
          (List.init (Array.length t.Driver.results) Fun.id)));
  let best_json = function
    | None -> "null"
    | Some i -> (
      match Hashtbl.find_opt emitted_pos i with
      | Some pos -> string_of_int pos
      | None -> "null")
  in
  add "  \"best\": {\"t_total\": %s, \"area\": %s, \"energy\": %s}\n"
    (best_json t.Driver.best_time)
    (best_json t.Driver.best_area)
    (best_json t.Driver.best_energy);
  add "}\n";
  Buffer.contents buf

(* ---- markdown ------------------------------------------------------------ *)

let markdown ?pareto_only (t : Driver.t) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Design-space exploration — %s\n\n" t.Driver.workload;
  add "%d points; %d ok (%d met constraint), %d failed; cache %d misses / \
       %d hits.\n\n"
    (Array.length t.Driver.results)
    (Driver.ok_count t) (met_counts t) (Driver.failed_count t)
    t.Driver.cache.Cache.misses t.Driver.cache.Cache.hits;
  add
    "| A_FPGA | CGCs | ratio | timing | status | initial | final | reduction \
     | energy | moved | cache | pareto |\n";
  add "|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun i ->
      let r = t.Driver.results.(i) in
      let p = r.Driver.point in
      let cache = if r.Driver.cached then "hit" else "miss" in
      match r.Driver.outcome with
      | Ok m ->
        add "| %d | %s | %d | %d | %s | %d | %d | %.1f%% | %d | %s | %s | %s |\n"
          p.Space.area m.Eval.cgc_desc p.Space.clock_ratio p.Space.timing
          (Engine.status_key m.Eval.status)
          m.Eval.initial.Engine.t_total m.Eval.final.Engine.t_total
          m.Eval.reduction m.Eval.energy
          (moved_string m.Eval.moved)
          cache
          (if t.Driver.pareto.(i) then "yes" else "")
      | Error msg ->
        add "| %d | %s | %d | %d | **failed**: %s | | | | | | %s | |\n"
          p.Space.area (point_geom p) p.Space.clock_ratio p.Space.timing msg
          cache)
    (selected_indices ?pareto_only t);
  let best label = function
    | None -> ()
    | Some i ->
      add "- best %s: `%s`\n" label (Space.point_key t.Driver.results.(i).Driver.point)
  in
  add "\n";
  best "t_total" t.Driver.best_time;
  best "A_FPGA" t.Driver.best_area;
  best "energy" t.Driver.best_energy;
  Buffer.contents buf
