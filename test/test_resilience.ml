(* Unit tests for the resilience layer: fault-spec round-trips, degraded
   scheduling/binding, graceful engine degradation, deterministic retry
   and the crash-safe checkpoint journal. *)

module Ir = Hypar_ir
module Cgc = Hypar_coarsegrain.Cgc
module Schedule = Hypar_coarsegrain.Schedule
module Binding = Hypar_coarsegrain.Binding
module Platform = Hypar_core.Platform
module Engine = Hypar_core.Engine
module Flow = Hypar_core.Flow
module Fault = Hypar_resilience.Fault
module Spec = Hypar_resilience.Spec
module Degrade = Hypar_resilience.Degrade
module Delta = Hypar_resilience.Delta
module Retry = Hypar_resilience.Retry
module Journal = Hypar_resilience.Journal
module Space = Hypar_explore.Space
module Driver = Hypar_explore.Driver
module Render = Hypar_explore.Render
module Eval = Hypar_explore.Eval
module Checkpoint = Hypar_explore.Checkpoint

let platform () = List.hd (Platform.paper_configs ())

let parse_exn text =
  match Spec.of_string text with
  | Ok s -> s
  | Error e -> Alcotest.failf "spec rejected: %s" e

(* ---- spec parsing and printing ----------------------------------------- *)

let full_spec_text =
  {|# every directive once
seed 11
dead-node 0 1 1 mult
dead-node 1 0 0 both
dead-cgc 1
area-loss 10%
area-loss 250
comm-slowdown 150
transient 125 2
|}

let test_spec_round_trip () =
  let s = parse_exn full_spec_text in
  Alcotest.(check int) "seed" 11 s.Fault.seed;
  Alcotest.(check int) "fault count" 7 (List.length s.Fault.faults);
  let s' = parse_exn (Spec.to_text s) in
  Alcotest.(check bool) "to_text/of_string round-trips" true (s = s');
  (* printing again is a fixpoint *)
  Alcotest.(check string) "canonical text is stable" (Spec.to_text s)
    (Spec.to_text s')

let test_spec_errors_located () =
  let reject text needle =
    match Spec.of_string text with
    | Ok _ -> Alcotest.failf "spec %S should be rejected" text
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S in %S" needle e)
        true
        (Str_contains.contains e needle)
  in
  reject "dead-node 0" "line 1";
  reject "seed 1\nwibble 3" "line 2";
  reject "comm-slowdown 50" "line 1";
  reject "transient 2000 1" "line 1";
  reject "dead-node 0 1 1 quux" "line 1"

let test_spec_json () =
  let s = parse_exn "seed 3\ndead-node 0 1 1 alu\ntransient 10 1" in
  let j = Spec.to_json s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Str_contains.contains j needle))
    [ {|"seed": 3|}; {|"dead-node"|}; {|"alu"|}; {|"transient"|} ]

(* ---- degradation -------------------------------------------------------- *)

let test_degrade_platform () =
  let s = parse_exn "dead-node 0 1 1 both\ndead-cgc 1" in
  match Degrade.apply s (platform ()) with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check bool) "marked degraded" true (Platform.degraded p);
    Alcotest.(check bool) "name suffixed" true
      (Str_contains.contains p.Platform.name "[degraded]");
    (match p.Platform.cgc_health with
    | None -> Alcotest.fail "expected a health mask"
    | Some h ->
      let usable (h : Cgc.health) = Array.fold_left ( + ) 0 h.col_rows in
      let full = usable (Cgc.full_health p.Platform.cgc) in
      Alcotest.(check bool) "slots lost" true (usable h < full))

let test_degrade_strictness () =
  let s = parse_exn "dead-cgc 7" in
  (match Degrade.apply s (platform ()) with
  | Ok _ -> Alcotest.fail "out-of-range fault accepted strictly"
  | Error _ -> ());
  match Degrade.apply ~strict:false s (platform ()) with
  | Error e -> Alcotest.failf "non-strict should skip: %s" e
  | Ok p ->
    (* nothing applied: the platform is untouched *)
    Alcotest.(check bool) "not degraded" false (Platform.degraded p)

let test_degrade_area_and_comm () =
  let s = parse_exn "area-loss 50%\ncomm-slowdown 200" in
  let before = platform () in
  match Degrade.apply s before with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check int) "area halved"
      (before.Platform.fpga.Hypar_finegrain.Fpga.area / 2)
      p.Platform.fpga.Hypar_finegrain.Fpga.area;
    Alcotest.(check int) "words cost double"
      (2 * before.Platform.comm.Hypar_core.Comm.cycles_per_word)
      p.Platform.comm.Hypar_core.Comm.cycles_per_word;
    (* the input platform is never mutated *)
    Alcotest.(check bool) "pure transform" false (Platform.degraded before)

(* ---- dead nodes never host operations ----------------------------------- *)

let chained_mul_dfg () =
  Ir.Builder.dfg_of (fun b ->
      let a = Ir.Builder.fresh_var b "a" in
      let t = Ir.Builder.mul b "t" (Ir.Builder.var a) (Ir.Builder.var a) in
      ignore
        (Ir.Builder.bin b Ir.Types.Add "u" (Ir.Builder.var t)
           (Ir.Builder.imm 1)))

let test_dead_node_avoided () =
  let cgc = Cgc.two_by_two 2 in
  let dfg = chained_mul_dfg () in
  let s0 = Schedule.schedule cgc dfg in
  let b0 = Binding.bind cgc dfg s0 in
  (* kill the exact node the healthy binding chains into *)
  let tail =
    List.find (fun (s : Binding.slot) -> s.row = 1) b0.Binding.slots
  in
  let health =
    Cgc.kill_node cgc (Cgc.full_health cgc) ~cgc:tail.Binding.cgc
      ~row:tail.Binding.row ~col:tail.Binding.col
  in
  Alcotest.(check bool) "healthy binding hits dead hardware" false
    (Binding.is_valid ~health cgc b0);
  let s1 = Schedule.schedule ~health cgc dfg in
  Alcotest.(check bool) "degraded schedule valid under health" true
    (Schedule.is_valid ~health cgc dfg s1);
  let b1 = Binding.bind cgc dfg s1 in
  Alcotest.(check bool) "degraded binding avoids dead node" true
    (Binding.is_valid ~health cgc b1)

(* ---- graceful engine degradation (OFDM acceptance scenario) ------------- *)

let test_ofdm_degraded_partition () =
  let prepared = Hypar_apps.Ofdm.prepared () in
  let s = parse_exn "seed 1\ndead-node 0 0 0 both\ndead-cgc 1" in
  let go p =
    Engine.run p ~timing_constraint:Hypar_apps.Ofdm.timing_constraint
      prepared.Flow.cdfg prepared.Flow.profile
  in
  let healthy = platform () in
  match Degrade.apply s healthy with
  | Error e -> Alcotest.fail e
  | Ok degraded ->
    let d = Delta.of_runs ~healthy:(go healthy) ~degraded:(go degraded) in
    Alcotest.(check bool) "degradation never speeds things up" true
      (d.Delta.t_total_delta >= 0);
    Alcotest.(check bool) "slowdown percent consistent" true
      (d.Delta.slowdown_percent >= 0.);
    (* every skip carries a typed reason *)
    List.iter
      (fun (_, reason) ->
        match reason with
        | Engine.Not_cgc_executable | Engine.No_cgc_capacity -> ())
      d.Delta.degraded.Engine.skipped

(* ---- retry -------------------------------------------------------------- *)

let test_retry_deterministic () =
  let log = ref [] in
  let f attempt =
    log := attempt :: !log;
    if attempt <= 2 then Error (Printf.sprintf "boom %d" attempt)
    else Ok attempt
  in
  (match Retry.run ~retries:2 f with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "wrong attempt %d" n
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "attempts in order" [ 1; 2; 3 ] (List.rev !log);
  (match Retry.run ~retries:1 f with
  | Error "boom 2" -> ()
  | Error e -> Alcotest.failf "wrong error %s" e
  | Ok _ -> Alcotest.fail "should exhaust retries");
  match Retry.run ~retries:(-1) f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative retries accepted"

let test_transient_deterministic () =
  let s = parse_exn "seed 5\ntransient 1000 2" in
  let fails attempt =
    Fault.transient_should_fail s ~key:"a500/k1/g2x2/r3/t8000" ~attempt
  in
  Alcotest.(check bool) "attempt 1 fails" true (fails 1);
  Alcotest.(check bool) "attempt 2 fails" true (fails 2);
  Alcotest.(check bool) "attempt 3 exceeds max_failures" false (fails 3);
  (* pure function of (seed, key, attempt) *)
  Alcotest.(check bool) "repeatable" (fails 1) (fails 1);
  let other = parse_exn "seed 6\ntransient 500 1" in
  let sample key =
    Fault.transient_should_fail other ~key ~attempt:1
  in
  (* with permille 500 some keys fail and some do not *)
  let keys = List.init 64 (fun i -> Printf.sprintf "k%d" i) in
  let failures = List.length (List.filter sample keys) in
  Alcotest.(check bool) "permille 500 is neither 0 nor 1" true
    (failures > 0 && failures < 64)

(* ---- journal ------------------------------------------------------------ *)

let temp_path () = Filename.temp_file "hypar_test" ".journal"

let test_journal_round_trip () =
  let path = temp_path () in
  (match Journal.create ~header:"test v1" path with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Journal.append j "one";
    Journal.append j "two with spaces";
    Journal.close j);
  (match Journal.load ~header:"test v1" path with
  | Error e -> Alcotest.fail e
  | Ok entries ->
    Alcotest.(check (list string)) "entries in order"
      [ "one"; "two with spaces" ] entries);
  (match Journal.load ~header:"other v2" path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong header accepted");
  Sys.remove path;
  match Journal.load ~header:"test v1" path with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "missing file should be empty"
  | Error e -> Alcotest.failf "missing file should be Ok []: %s" e

let test_journal_torn_line () =
  let path = temp_path () in
  (match Journal.create ~header:"test v1" path with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Journal.append j "complete";
    Journal.close j);
  (* simulate a crash mid-append: a partial entry with no newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "13:half an ent";
  close_out oc;
  (match Journal.load ~header:"test v1" path with
  | Error e -> Alcotest.fail e
  | Ok entries ->
    Alcotest.(check (list string)) "torn line dropped" [ "complete" ] entries);
  Sys.remove path

(* ---- checkpoint resume is byte-identical -------------------------------- *)

let small_prepared =
  lazy
    (Flow.prepare ~name:"resil"
       {|
int in[4];
int out[4];
void main() {
  int i;
  for (i = 0; i < 4; i++) { out[i] = in[i] * 3 + 1; }
}
|})

let test_resume_byte_identical () =
  let prepared = Lazy.force small_prepared in
  let space =
    Space.make ~areas:[ 500; 1500 ] ~cgcs:[ 1; 2 ] ~timings:[ 4000 ] ()
  in
  let path = temp_path () in
  let fresh =
    match Driver.run ~checkpoint:path prepared space with
    | Ok t -> Render.csv t
    | Error e -> Alcotest.fail e
  in
  (* crash simulation: drop the journal's tail and tear the last line *)
  let lines =
    In_channel.with_open_text path (fun ic ->
        String.split_on_char '\n' (In_channel.input_all ic))
  in
  let keep = List.filteri (fun i _ -> i < 3) lines in
  let torn =
    match List.nth_opt lines 3 with
    | Some l when String.length l > 5 -> [ String.sub l 0 5 ]
    | _ -> []
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" (keep @ torn)));
  let resumed =
    match Driver.run ~checkpoint:path ~resume:true prepared space with
    | Ok t -> Render.csv t
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "resume renders byte-identically" fresh resumed;
  Sys.remove path

(* ---- checkpoint codec --------------------------------------------------- *)

(* a v1 payload as the explore driver journals it: key, CGC description,
   initial and final times, the "Cycles in CGC" column (13), moved set,
   skip count, status key (16) and energy *)
let v1_line =
  String.concat "\t"
    [ "ok"; "digest|a500/k1/g2x2/r3/t600"; "one 2x2"; "26737"; "0"; "0"; "0";
      "26737"; "25"; "1568"; "523"; "10"; "558"; "1568"; "2,3,1"; "0";
      "met-after-3"; "39255" ]

let with_field i v line =
  String.split_on_char '\t' line
  |> List.mapi (fun j f -> if j = i then v else f)
  |> String.concat "\t"

let test_checkpoint_decode () =
  (match Checkpoint.decode v1_line with
  | Some (key, Ok m) ->
    Alcotest.(check string) "key" "digest|a500/k1/g2x2/r3/t600" key;
    Alcotest.(check bool) "met derived" true m.Eval.met;
    Alcotest.(check (float 0.)) "reduction derived"
      (Engine.reduction_of_totals ~initial:26737 ~final:558)
      m.Eval.reduction;
    Alcotest.(check string) "re-encodes byte for byte" v1_line
      (Checkpoint.encode ~key (Ok m))
  | _ -> Alcotest.fail "v1 line rejected");
  (match Checkpoint.decode (with_field 16 "infeasible" v1_line) with
  | Some (_, Ok m) -> Alcotest.(check bool) "infeasible is not met" false m.Eval.met
  | _ -> Alcotest.fail "infeasible line rejected");
  (* int_of_string_opt reads the first three as 31, 3 and -1 *)
  List.iter
    (fun status ->
      Alcotest.(check bool) (status ^ " rejected") true
        (Option.is_none (Checkpoint.decode (with_field 16 status v1_line))))
    [ "met-after-0x1F"; "met-after-+3"; "met-after--1"; "met-after-";
      "met-after-03"; "met-after-0" ];
  Alcotest.(check bool) "CGC-cycles column unlike t_coarse_cgc rejected" true
    (Option.is_none (Checkpoint.decode (with_field 13 "1569" v1_line)))

let test_explore_with_faults_and_retries () =
  let prepared = Lazy.force small_prepared in
  let space = Space.make ~areas:[ 1500 ] ~cgcs:[ 2 ] ~timings:[ 4000 ] () in
  let faults = parse_exn "seed 9\ndead-node 0 1 1 both\ntransient 1000 2" in
  (* without retries the injected transient failure surfaces... *)
  (match Driver.run ~faults prepared space with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check int) "transient fault fails the point" 1
      (Driver.failed_count t));
  (* ...and bounded retry rides through it deterministically *)
  match Driver.run ~faults ~retries:2 prepared space with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check int) "retries absorb the transient" 0
      (Driver.failed_count t);
    Alcotest.(check int) "all points ok" 1 (Driver.ok_count t)

let suite =
  [
    Alcotest.test_case "spec round trip" `Quick test_spec_round_trip;
    Alcotest.test_case "spec errors located" `Quick test_spec_errors_located;
    Alcotest.test_case "spec json" `Quick test_spec_json;
    Alcotest.test_case "degrade platform" `Quick test_degrade_platform;
    Alcotest.test_case "degrade strictness" `Quick test_degrade_strictness;
    Alcotest.test_case "degrade area and comm" `Quick test_degrade_area_and_comm;
    Alcotest.test_case "dead node avoided" `Quick test_dead_node_avoided;
    Alcotest.test_case "ofdm degraded partition" `Quick
      test_ofdm_degraded_partition;
    Alcotest.test_case "retry deterministic" `Quick test_retry_deterministic;
    Alcotest.test_case "transient deterministic" `Quick
      test_transient_deterministic;
    Alcotest.test_case "journal round trip" `Quick test_journal_round_trip;
    Alcotest.test_case "journal torn line" `Quick test_journal_torn_line;
    Alcotest.test_case "resume byte identical" `Quick
      test_resume_byte_identical;
    Alcotest.test_case "checkpoint decode" `Quick test_checkpoint_decode;
    Alcotest.test_case "explore faults and retries" `Quick
      test_explore_with_faults_and_retries;
  ]
