(* Chaos spec parse/print, chaos regression fixture replay, and
   quarantine journal persistence for the self-healing serve pool. *)

module Chaos = Hypar_server.Chaos
module Soak = Hypar_server.Soak
module Supervisor = Hypar_server.Supervisor
module Protocol = Hypar_server.Protocol

(* ---- chaos spec parse / print ------------------------------------------- *)

(* one of every directive, including both delay spellings *)
let full_spec =
  {
    Chaos.seed = 9;
    faults =
      [
        Chaos.Crash 5;
        Chaos.Crash_on 3;
        Chaos.Wedge { percent = 2; ms = 400 };
        Chaos.Wedge_on { seq = 4; ms = 250 };
        Chaos.Delay { percent = 10; min_ms = 1; max_ms = 5 };
        Chaos.Delay { percent = 7; min_ms = 3; max_ms = 3 };
        Chaos.Drop 1;
        Chaos.Truncate 2;
        Chaos.Slowloris { percent = 5; ms = 1 };
      ];
  }

let test_chaos_roundtrip () =
  List.iter
    (fun spec ->
      match Chaos.of_string (Chaos.to_text spec) with
      | Ok spec' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip of %S" (Chaos.to_text spec))
          true (spec = spec')
      | Error e -> Alcotest.fail e)
    [ Chaos.none; Chaos.default; full_spec ]

let test_chaos_comments () =
  match Chaos.of_string "# a comment\n\n  seed 4 # trailing\ncrash 10% # boom" with
  | Ok spec ->
    Alcotest.(check bool) "comments and blanks skipped" true
      (spec = { Chaos.seed = 4; faults = [ Chaos.Crash 10 ] })
  | Error e -> Alcotest.fail e

let check_parse_error text fragment =
  match Chaos.of_string text with
  | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed but should not" text)
  | Error msg ->
    let contains =
      let n = String.length fragment in
      let rec go i =
        i + n <= String.length msg
        && (String.sub msg i n = fragment || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%S error mentions %S (got %S)" text fragment msg)
      true contains

let test_chaos_errors () =
  check_parse_error "crash twelve" "line 1";
  check_parse_error "seed 1\nfrobnicate 3%" "line 2";
  check_parse_error "seed 1\nfrobnicate 3%" "unknown directive";
  check_parse_error "crash 150%" "<= 100";
  check_parse_error "delay 5% 9..3" "empty range";
  check_parse_error "wedge 5%" "wedge needs PERCENT MS";
  check_parse_error "seed -3" "non-negative"

let test_chaos_of_arg () =
  Alcotest.(check bool) "none" true (Chaos.of_arg "none" = Ok None);
  Alcotest.(check bool) "off" true (Chaos.of_arg "off" = Ok None);
  Alcotest.(check bool) "default" true
    (Chaos.of_arg "default" = Ok (Some Chaos.default));
  Alcotest.(check bool) "missing file" true
    (Result.is_error (Chaos.of_arg "no-such-file.chaos"))

(* Percent-fault decisions hash the request digest, never the sequence
   number — the jobs-independence of a whole campaign reduces to this. *)
let test_chaos_decisions () =
  let spec = { Chaos.seed = 3; faults = [ Chaos.Crash 50 ] } in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "crash roll for %S ignores seq" key)
        (Chaos.crashes spec ~seq:1 ~key ~attempt:1)
        (Chaos.crashes spec ~seq:9999 ~key ~attempt:1))
    [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ];
  let targeted = { Chaos.seed = 0; faults = [ Chaos.Wedge_on { seq = 3; ms = 100 } ] } in
  Alcotest.(check bool) "wedge-on fires on its seq, first attempt" true
    (Chaos.wedge_ms targeted ~seq:3 ~key:"k" ~attempt:1 = Some 100);
  Alcotest.(check bool) "wedge-on spares the retry" true
    (Chaos.wedge_ms targeted ~seq:3 ~key:"k" ~attempt:2 = None);
  Alcotest.(check bool) "wedge-on spares other requests" true
    (Chaos.wedge_ms targeted ~seq:2 ~key:"k" ~attempt:1 = None)

(* ---- fixture replay ------------------------------------------------------ *)

let load_fixture name =
  match Chaos.of_arg (Filename.concat "chaos" name) with
  | Ok (Some spec) -> spec
  | Ok None -> Alcotest.fail "no spec"
  | Error e -> Alcotest.fail e

let soak_with ?(grace = 2000) ?(count = 8) chaos =
  let cfg =
    {
      Soak.default_config with
      seed = 1;
      count;
      jobs = 2;
      chaos;
      grace_ms = grace;
    }
  in
  match Soak.run cfg with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let check_clean_pass r ~count =
  Alcotest.(check (list string)) "no invariant failures" [] r.Soak.failures;
  Alcotest.(check int) "every request answered" count r.Soak.responses;
  Alcotest.(check int) "no duplicates" 0 r.Soak.duplicates;
  Alcotest.(check int) "pool healed to full width" 2
    r.Soak.stats.Supervisor.live_workers

let test_fixture_crash () =
  let r = soak_with (Some (load_fixture "crash-on-second.chaos")) in
  check_clean_pass r ~count:8;
  Alcotest.(check bool) "a worker crashed" true
    (r.Soak.stats.Supervisor.crashes >= 1);
  Alcotest.(check bool) "the request was retried" true
    (r.Soak.stats.Supervisor.retries >= 1);
  Alcotest.(check bool) "a replacement was spawned" true
    (r.Soak.stats.Supervisor.respawns >= 1);
  Alcotest.(check int) "retry succeeded, nothing quarantined" 0
    r.Soak.stats.Supervisor.quarantines

let test_fixture_wedge () =
  let r = soak_with (Some (load_fixture "wedge-past-deadline.chaos")) in
  check_clean_pass r ~count:8;
  Alcotest.(check bool) "the stalled worker was declared wedged" true
    (r.Soak.stats.Supervisor.wedges >= 1);
  Alcotest.(check bool) "the request was retried" true
    (r.Soak.stats.Supervisor.retries >= 1);
  Alcotest.(check int) "retry succeeded, nothing quarantined" 0
    r.Soak.stats.Supervisor.quarantines

(* A chaos delay heartbeats through its stall, so even a stall longer
   than the grace must never trip wedge detection — the exact stall
   that, without heartbeats, the wedge fixture proves IS detected. *)
let test_delay_is_innocent () =
  let chaos =
    {
      Chaos.seed = 1;
      faults = [ Chaos.Delay { percent = 100; min_ms = 2500; max_ms = 2500 } ];
    }
  in
  let r = soak_with ~grace:2000 ~count:2 (Some chaos) in
  check_clean_pass r ~count:2;
  Alcotest.(check int) "no wedges" 0 r.Soak.stats.Supervisor.wedges;
  Alcotest.(check int) "no retries" 0 r.Soak.stats.Supervisor.retries

(* Chaos off: the supervised pool must answer exactly as the inline session. *)
let test_chaos_free_baseline () =
  let cfg =
    { Soak.default_config with seed = 2; count = 6; jobs = 2; chaos = None }
  in
  match Soak.run cfg with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_clean_pass r ~count:6;
    Alcotest.(check bool) "matches the inline baseline" true
      (r.Soak.baseline_match = Some true);
    Alcotest.(check int) "no respawns" 0 r.Soak.stats.Supervisor.respawns;
    Alcotest.(check int) "no crashes" 0 r.Soak.stats.Supervisor.crashes

(* ---- quarantine journal persistence -------------------------------------- *)

let test_quarantine_persists () =
  let path = Filename.temp_file "hypar-quarantine" ".journal" in
  Sys.remove path;
  let request =
    match Protocol.parse_request {|{"id":7,"verb":"health"}|} with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let opts =
    {
      Supervisor.default_options with
      max_retries = 0;
      quarantine_path = Some path;
    }
  in
  let lock = Mutex.create () in
  let seen = ref [] in
  let deliver ~seq:_ resp _events =
    Mutex.lock lock;
    seen := resp :: !seen;
    Mutex.unlock lock
  in
  let round execute =
    seen := [];
    match
      Supervisor.start ~jobs:1 opts ~queue_capacity:4
        ~deadline_ms:(fun _ -> None)
        ~execute ~deliver
    with
    | Error e -> Alcotest.fail e
    | Ok t ->
      (match Supervisor.submit t ~seq:1 request with
      | Supervisor.Admitted -> ()
      | _ -> Alcotest.fail "request not admitted");
      let stats = Supervisor.drain t in
      (stats, !seen)
  in
  let stats1, seen1 = round (fun ~heartbeat:_ _ -> failwith "boom") in
  Alcotest.(check int) "quarantined after exhausting retries" 1
    stats1.Supervisor.quarantines;
  Alcotest.(check int) "the crash was counted" 1 stats1.Supervisor.crashes;
  (match seen1 with
  | [ Protocol.Poisoned { signature; attempts; _ } ] ->
    Alcotest.(check string) "signature names the exception" "crash:Failure"
      signature;
    Alcotest.(check int) "one attempt was made" 1 attempts
  | _ -> Alcotest.fail "expected exactly one poisoned envelope");
  Alcotest.(check bool) "journal validates" true
    (Supervisor.validate_quarantine path = Ok ());
  (* a restarted supervisor reloads the journal: the digest is refused
     at admission, no worker is sacrificed, nothing is re-journalled *)
  let reached_worker = Atomic.make false in
  let stats2, seen2 =
    round (fun ~heartbeat:_ _ ->
        Atomic.set reached_worker true;
        failwith "boom")
  in
  Alcotest.(check bool) "never reached a worker" false
    (Atomic.get reached_worker);
  Alcotest.(check int) "not quarantined again" 0 stats2.Supervisor.quarantines;
  (match seen2 with
  | [ Protocol.Poisoned { attempts; _ } ] ->
    Alcotest.(check int) "refused at admission (zero attempts)" 0 attempts
  | _ -> Alcotest.fail "expected an immediate poisoned envelope");
  Sys.remove path

let suite =
  [
    Alcotest.test_case "chaos: parse/print round-trip" `Quick
      test_chaos_roundtrip;
    Alcotest.test_case "chaos: comments and blanks" `Quick test_chaos_comments;
    Alcotest.test_case "chaos: parse errors" `Quick test_chaos_errors;
    Alcotest.test_case "chaos: --chaos argument" `Quick test_chaos_of_arg;
    Alcotest.test_case "chaos: decisions ignore worker identity" `Quick
      test_chaos_decisions;
    Alcotest.test_case "fixture: crash on second request" `Quick
      test_fixture_crash;
    Alcotest.test_case "fixture: wedge past deadline" `Quick test_fixture_wedge;
    Alcotest.test_case "delay heartbeats through its stall" `Quick
      test_delay_is_innocent;
    Alcotest.test_case "chaos-free supervision equals baseline" `Quick
      test_chaos_free_baseline;
    Alcotest.test_case "quarantine journal survives restart" `Quick
      test_quarantine_persists;
  ]
