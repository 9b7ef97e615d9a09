module Jsonv = Hypar_obs.Jsonv
module Gen = Hypar_fuzzgen.Gen
module Rng = Hypar_fuzzgen.Rng
module Corpus = Hypar_fuzzgen.Corpus

type config = {
  seed : int;
  count : int;
  budget_ms : int;
  jobs : int;
  chaos : Chaos.spec option;
  corpus_dir : string option;
  max_retries : int;
  grace_ms : int;
  fuel : int;
}

let default_config =
  {
    seed = 0;
    count = 100;
    budget_ms = 60_000;
    jobs = 4;
    chaos = Some Chaos.default;
    corpus_dir = None;
    max_retries = 1;
    grace_ms = 2000;
    fuel = 50_000;
  }

type report = {
  seed : int;
  count : int;
  jobs : int;
  chaos_active : bool;
  responses : int;
  missing : int;
  duplicates : int;
  classes : (string * int) list;
  stats : Supervisor.stats;
  digest : string;  (** MD5 of the sorted response lines *)
  baseline_match : bool option;
  elapsed_ms : int;
  budget_ms : int;
  failures : string list;
}

let passed r = r.failures = []

(* --- the program pool ---------------------------------------------------- *)

(* Generated programs land in a directory named after the seed alone, so
   every soak process with the same seed sees the same paths — request
   digests, and with them every chaos decision, are identical across
   [--jobs] values and reruns.  Concurrent same-seed soaks write the
   same bytes, and the write is atomic, so sharing the directory is
   safe. *)
let program_pool (cfg : config) =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hypar-soak-%d" cfg.seed)
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let generated =
    List.init 6 (fun i ->
        let seed = Rng.derive ~seed:cfg.seed i in
        let path = Filename.concat dir (Printf.sprintf "gen-%d.mc" i) in
        Hypar_obs.Export.write_file path (Gen.source seed);
        path)
  in
  match cfg.corpus_dir with
  | None -> Ok (Array.of_list generated)
  | Some d -> (
    (* corpus entries are plain compilable Mini-C files — reference them
       in place; their repo paths are as stable as the seed directory *)
    match Corpus.load_dir d with
    | Error msg -> Error (Printf.sprintf "corpus %s: %s" d msg)
    | Ok entries ->
      let paths =
        List.map (fun (e : Corpus.entry) -> Filename.concat d (e.name ^ ".mc"))
          entries
      in
      Ok (Array.of_list (generated @ paths)))

(* --- request generation -------------------------------------------------- *)

let num i = Jsonv.Num (float_of_int i)

(* Each body carries a unique ["tag"] so every request has a distinct
   {!Protocol.digest} even when it reuses a pooled program: chaos
   decisions and quarantine entries then affect exactly the request they
   were rolled for. *)
let requests (cfg : config) programs =
  let rng = Rng.create cfg.seed in
  List.init cfg.count (fun i ->
      let id = i + 1 in
      let file = programs.(Rng.int rng (Array.length programs)) in
      let body =
        if Rng.int rng 100 < 60 then
          Jsonv.Obj
            [
              ("id", num id);
              ("verb", Jsonv.Str "analyze");
              ("file", Jsonv.Str file);
              ("top", num 4);
              ("tag", num id);
            ]
        else
          Jsonv.Obj
            [
              ("id", num id);
              ("verb", Jsonv.Str "partition");
              ("file", Jsonv.Str file);
              ("timing", num (Rng.range rng 50 400));
              ("tag", num id);
            ]
      in
      Jsonv.to_string body)

(* --- plumbing ------------------------------------------------------------ *)

let write_all fd s off len =
  let rec go off len =
    if len > 0 then
      match Unix.write_substring fd s off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
  in
  go off len

(* The feeder side of chaos: [slowloris] dribbles the request bytes a
   few at a time with a pause per chunk, exercising the server's
   buffered line reassembly. *)
let feed_line chaos fd line =
  let s = line ^ "\n" in
  let slow =
    match chaos with
    | Some spec -> Chaos.slowloris_ms spec ~key:line
    | None -> None
  in
  match slow with
  | None -> write_all fd s 0 (String.length s)
  | Some ms ->
    let n = String.length s in
    let rec go off =
      if off < n then begin
        let chunk = min 7 (n - off) in
        write_all fd s off chunk;
        if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.);
        go (off + chunk)
      end
    in
    go 0

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let no_stats =
  {
    Supervisor.respawns = 0;
    retries = 0;
    quarantines = 0;
    wedges = 0;
    crashes = 0;
    live_workers = 0;
    max_heartbeat_age_ms = 0;
  }

(* One in-process server session over a pipe pair: a feeder domain
   writes the request lines (with slow-loris interference when chaos
   says so), a collector domain gathers the response bytes, the session
   runs on the calling domain.  The unsupervised baseline is the inline
   session: one job, no pool. *)
let run_server (cfg : config) ~supervised lines =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let chaos = if supervised then cfg.chaos else None in
  let sconfig =
    {
      Server.jobs = (if supervised then cfg.jobs else 1);
      max_queue = max 64 cfg.count;
      drain_timeout_ms = cfg.budget_ms;
      retry_after_ms = 100;
      faults = None;
      backend = None;
      default_deadline_ms = None;
      default_fuel = Some cfg.fuel;
      supervisor =
        (if supervised then
           Some
             {
               Supervisor.default_options with
               max_retries = cfg.max_retries;
               grace_ms = Some cfg.grace_ms;
               chaos;
             }
         else None);
    }
  in
  let drain = Drain.create ~drain_timeout_ms:cfg.budget_ms in
  let feeder =
    Domain.spawn (fun () ->
        List.iter (fun line -> feed_line chaos req_w line) lines;
        Unix.close req_w)
  in
  let collector = Domain.spawn (fun () -> read_all resp_r) in
  let stats = ref no_stats in
  Server.run_session ~on_stats:(fun s -> stats := s) sconfig drain req_r resp_w;
  Unix.close resp_w;
  Domain.join feeder;
  let out = Domain.join collector in
  Unix.close req_r;
  Unix.close resp_r;
  (out, !stats)

(* --- invariants ---------------------------------------------------------- *)

let response_lines out =
  String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")

let id_and_status line =
  match Jsonv.parse line with
  | Error _ -> (None, "unparseable")
  | Ok v ->
    let id = Option.bind (Jsonv.member "id" v) Jsonv.to_int in
    let status =
      match Jsonv.member "status" v with
      | Some (Jsonv.Str s) -> s
      | _ -> "missing-status"
    in
    (id, status)

let digest_of lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

let check (cfg : config) lines stats =
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun m -> failures := m :: !failures) fmt in
  let n = List.length lines in
  if n <> cfg.count then
    fail "expected %d responses, got %d" cfg.count n;
  let seen = Hashtbl.create cfg.count in
  let duplicates = ref 0 in
  List.iter
    (fun line ->
      match id_and_status line with
      | Some id, _ ->
        if Hashtbl.mem seen id then begin
          incr duplicates;
          fail "duplicate response for id %d" id
        end
        else Hashtbl.replace seen id ()
      | None, status -> fail "response without id (status %s)" status)
    lines;
  let missing = ref 0 in
  for id = 1 to cfg.count do
    if not (Hashtbl.mem seen id) then begin
      incr missing;
      fail "no response for id %d" id
    end
  done;
  if stats.Supervisor.live_workers <> max 1 cfg.jobs then
    fail "pool ended with %d live workers, expected %d"
      stats.Supervisor.live_workers (max 1 cfg.jobs);
  (List.rev !failures, !duplicates, !missing)

let classes_of lines =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let _, status = id_and_status line in
      Hashtbl.replace tbl status (1 + Option.value ~default:0 (Hashtbl.find_opt tbl status)))
    lines;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

(* --- the campaign -------------------------------------------------------- *)

let run (cfg : config) =
  let cfg = { cfg with jobs = max 1 cfg.jobs; count = max 1 cfg.count } in
  match program_pool cfg with
  | Error _ as e -> e
  | Ok programs ->
    let lines = requests cfg programs in
    let started = Unix.gettimeofday () in
    let out, stats = run_server cfg ~supervised:true lines in
    let elapsed_ms =
      int_of_float ((Unix.gettimeofday () -. started) *. 1000.)
    in
    let resp = response_lines out in
    let failures, duplicates, missing = check cfg resp stats in
    let chaos_active =
      match cfg.chaos with Some s -> Chaos.active s | None -> false
    in
    let failures =
      if elapsed_ms > cfg.budget_ms then
        failures
        @ [ Printf.sprintf "budget exceeded: %d ms > %d ms" elapsed_ms cfg.budget_ms ]
      else failures
    in
    (* With chaos off, the supervised pool must answer exactly as the
       inline session does: byte-identical responses (modulo completion
       order, which was never deterministic for jobs > 1). *)
    let baseline_match, failures =
      if chaos_active then (None, failures)
      else begin
        let base_out, _ = run_server cfg ~supervised:false lines in
        let base = response_lines base_out in
        if List.sort compare base = List.sort compare resp then
          (Some true, failures)
        else
          ( Some false,
            failures
            @ [ "chaos-free supervised output differs from the inline \
                 baseline" ] )
      end
    in
    Ok
      {
        seed = cfg.seed;
        count = cfg.count;
        jobs = cfg.jobs;
        chaos_active;
        responses = List.length resp;
        missing;
        duplicates;
        classes = classes_of resp;
        stats;
        digest = digest_of resp;
        baseline_match;
        elapsed_ms;
        budget_ms = cfg.budget_ms;
        failures;
      }

let to_text r =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "hypar soak: seed=%d count=%d jobs=%d chaos=%s\n" r.seed r.count r.jobs
    (if r.chaos_active then "on" else "off");
  add "  responses: %d/%d (%s)\n" r.responses r.count
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.classes));
  add "  supervisor: respawns=%d retries=%d quarantines=%d wedges=%d \
       crashes=%d workers=%d max-heartbeat-age-ms=%d\n"
    r.stats.Supervisor.respawns r.stats.Supervisor.retries
    r.stats.Supervisor.quarantines r.stats.Supervisor.wedges
    r.stats.Supervisor.crashes r.stats.Supervisor.live_workers
    r.stats.Supervisor.max_heartbeat_age_ms;
  add "  digest: %s\n" r.digest;
  (match r.baseline_match with
  | Some true -> add "  baseline: match\n"
  | Some false -> add "  baseline: MISMATCH\n"
  | None -> ());
  List.iter (fun f -> add "  failure: %s\n" f) r.failures;
  add "result: %s\n" (if passed r then "PASS" else "FAIL");
  Buffer.contents buf
