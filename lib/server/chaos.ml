module Spec = Hypar_resilience.Spec

type fault =
  | Crash of int
  | Crash_on of int
  | Wedge of { percent : int; ms : int }
  | Wedge_on of { seq : int; ms : int }
  | Delay of { percent : int; min_ms : int; max_ms : int }
  | Drop of int
  | Truncate of int
  | Slowloris of { percent : int; ms : int }

type spec = { seed : int; faults : fault list }

let none = { seed = 0; faults = [] }

let active spec = spec.faults <> []

(* A moderate everything-at-once mix for soak campaigns.  The wedge
   stall (5 s) deliberately dwarfs the soak harness's default grace
   (2 s) so wedge detection wins the race deterministically — and the
   grace in turn dwarfs the longest legitimate poll gap (the
   partitioning engine can run for several hundred ms between polls). *)
let default =
  {
    seed = 0;
    faults =
      [
        Crash 5;
        Wedge { percent = 3; ms = 5000 };
        Delay { percent = 10; min_ms = 1; max_ms = 5 };
        Drop 5;
        Truncate 5;
        Slowloris { percent = 5; ms = 1 };
      ];
  }

(* --- seeded decisions ---------------------------------------------------- *)

(* Fault.hash over (seed, fault kind, request key, attempt), the hash
   behind Fault.Transient.  Decisions are keyed by the request digest,
   never by worker id or arrival order, so a chaos campaign makes the
   same choices for every [--jobs] value. *)
let hash spec ~kind ~key ~salt =
  Hypar_resilience.Fault.hash
    [ `Int spec.seed; `Str kind; `Str "/"; `Str key; `Str "/"; `Int salt ]

let roll spec ~kind ~key ~salt ~percent =
  percent > 0
  && (percent >= 100 || hash spec ~kind ~key ~salt mod 100 < percent)

let crashes spec ~seq ~key ~attempt =
  List.exists
    (function
      | Crash percent -> roll spec ~kind:"crash" ~key ~salt:attempt ~percent
      | Crash_on n -> seq = n && attempt = 1
      | _ -> false)
    spec.faults

let wedge_ms spec ~seq ~key ~attempt =
  List.fold_left
    (fun acc fault ->
      match (acc, fault) with
      | Some _, _ -> acc
      | None, Wedge { percent; ms } ->
        if roll spec ~kind:"wedge" ~key ~salt:attempt ~percent then Some ms
        else None
      | None, Wedge_on { seq = n; ms } ->
        if seq = n && attempt = 1 then Some ms else None
      | None, _ -> None)
    None spec.faults

let delay_ms spec ~key ~attempt =
  List.fold_left
    (fun acc fault ->
      match (acc, fault) with
      | Some _, _ -> acc
      | None, Delay { percent; min_ms; max_ms } ->
        if roll spec ~kind:"delay" ~key ~salt:attempt ~percent then
          let span = max 0 (max_ms - min_ms) in
          let extra =
            if span = 0 then 0
            else hash spec ~kind:"delay-ms" ~key ~salt:attempt mod (span + 1)
          in
          Some (min_ms + extra)
        else None
      | None, _ -> None)
    None spec.faults

let drop_write spec ~key =
  List.exists
    (function
      | Drop percent -> roll spec ~kind:"drop" ~key ~salt:0 ~percent
      | _ -> false)
    spec.faults

let truncate_write spec ~key =
  List.exists
    (function
      | Truncate percent -> roll spec ~kind:"truncate" ~key ~salt:0 ~percent
      | _ -> false)
    spec.faults

let slowloris_ms spec ~key =
  List.fold_left
    (fun acc fault ->
      match (acc, fault) with
      | Some _, _ -> acc
      | None, Slowloris { percent; ms } ->
        if roll spec ~kind:"slowloris" ~key ~salt:0 ~percent then Some ms
        else None
      | None, _ -> None)
    None spec.faults

(* --- parse / print ------------------------------------------------------- *)

let syntax_help =
  "chaos spec syntax (one directive per line, '#' starts a comment):\n\
  \  seed N                deterministic seed for every probabilistic choice\n\
  \  crash P%              crash the worker before P% of request attempts\n\
  \  crash-on SEQ          crash the first attempt of request number SEQ\n\
  \  wedge P% MS           stall P% of attempts for MS ms without heartbeats\n\
  \  wedge-on SEQ MS       stall the first attempt of request SEQ for MS ms\n\
  \  delay P% MS           delay P% of attempts by MS ms (heartbeats continue)\n\
  \  delay P% MIN..MAX     like delay, with a seeded duration in [MIN,MAX]\n\
  \  drop P%               void the first write attempt of P% of responses\n\
  \  truncate P%           cut the first write of P% of responses short\n\
  \  slowloris P% MS       dribble P% of soak request writes, MS ms per chunk"

let fault_string = function
  | Crash p -> Printf.sprintf "crash %d%%" p
  | Crash_on seq -> Printf.sprintf "crash-on %d" seq
  | Wedge { percent; ms } -> Printf.sprintf "wedge %d%% %d" percent ms
  | Wedge_on { seq; ms } -> Printf.sprintf "wedge-on %d %d" seq ms
  | Delay { percent; min_ms; max_ms } ->
    if min_ms = max_ms then Printf.sprintf "delay %d%% %d" percent min_ms
    else Printf.sprintf "delay %d%% %d..%d" percent min_ms max_ms
  | Drop p -> Printf.sprintf "drop %d%%" p
  | Truncate p -> Printf.sprintf "truncate %d%%" p
  | Slowloris { percent; ms } -> Printf.sprintf "slowloris %d%% %d" percent ms

let to_text spec = Spec.seeded_text ~seed:spec.seed fault_string spec.faults

let error = Spec.error
let nat_arg = Spec.nat_arg
let ( let* ) = Result.bind

let percent_arg line what s =
  if String.length s < 2 || s.[String.length s - 1] <> '%' then
    error line "%s: expected a percentage like 5%%, got %S" what s
  else
    let* p = nat_arg line what (String.sub s 0 (String.length s - 1)) in
    if p > 100 then error line "%s: percentage must be <= 100" what else Ok p

(* "MS" or "MIN..MAX" *)
let span_arg line what s =
  match String.index_opt s '.' with
  | None ->
    let* ms = nat_arg line what s in
    Ok (ms, ms)
  | Some i ->
    if i + 1 >= String.length s || s.[i + 1] <> '.' then
      error line "%s: expected MS or MIN..MAX, got %S" what s
    else
      let* lo = nat_arg line what (String.sub s 0 i) in
      let* hi =
        nat_arg line what (String.sub s (i + 2) (String.length s - i - 2))
      in
      if lo > hi then error line "%s: empty range %d..%d" what lo hi
      else Ok (lo, hi)

let parse_fault line words =
  match words with
  | [ "crash"; p ] ->
    let* p = percent_arg line "crash" p in
    Ok (Crash p)
  | "crash" :: _ -> error line "crash takes exactly one percentage"
  | [ "crash-on"; seq ] ->
    let* seq = nat_arg line "crash-on" seq in
    Ok (Crash_on seq)
  | "crash-on" :: _ -> error line "crash-on takes exactly one request number"
  | [ "wedge"; p; ms ] ->
    let* percent = percent_arg line "wedge" p in
    let* ms = nat_arg line "wedge duration" ms in
    Ok (Wedge { percent; ms })
  | "wedge" :: _ -> error line "wedge needs PERCENT MS"
  | [ "wedge-on"; seq; ms ] ->
    let* seq = nat_arg line "wedge-on" seq in
    let* ms = nat_arg line "wedge-on duration" ms in
    Ok (Wedge_on { seq; ms })
  | "wedge-on" :: _ -> error line "wedge-on needs SEQ MS"
  | [ "delay"; p; span ] ->
    let* percent = percent_arg line "delay" p in
    let* min_ms, max_ms = span_arg line "delay duration" span in
    Ok (Delay { percent; min_ms; max_ms })
  | "delay" :: _ -> error line "delay needs PERCENT MS|MIN..MAX"
  | [ "drop"; p ] ->
    let* p = percent_arg line "drop" p in
    Ok (Drop p)
  | "drop" :: _ -> error line "drop takes exactly one percentage"
  | [ "truncate"; p ] ->
    let* p = percent_arg line "truncate" p in
    Ok (Truncate p)
  | "truncate" :: _ -> error line "truncate takes exactly one percentage"
  | [ "slowloris"; p; ms ] ->
    let* percent = percent_arg line "slowloris" p in
    let* ms = nat_arg line "slowloris pause" ms in
    Ok (Slowloris { percent; ms })
  | "slowloris" :: _ -> error line "slowloris needs PERCENT MS"
  | directive :: _ -> error line "unknown directive %S" directive
  | [] -> assert false

let of_string text =
  Result.map
    (fun (seed, faults) -> { seed; faults })
    (Spec.parse_lines parse_fault text)

let load = Spec.load_with of_string

(* The CLI's --chaos argument: a built-in name or a spec file. *)
let of_arg = function
  | "none" | "off" -> Ok None
  | "default" -> Ok (Some default)
  | path -> Result.map Option.some (load path)
