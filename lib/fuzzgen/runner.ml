type config = {
  seed : int;
  count : int;
  budget_ms : int option;
  jobs : int;
  fuel : int;
  gen : Gen.config;
  shrink : bool;
  shrink_rounds : int;
  fail_on : string option;
}

let default =
  {
    seed = 1;
    count = 100;
    budget_ms = None;
    jobs = 1;
    fuel = 2_000_000;
    gen = Gen.default_config;
    shrink = true;
    shrink_rounds = 200;
    fail_on = None;
  }

type failure = {
  index : int;
  case_seed : int;
  finding : Oracle.finding;
  source : string;
  reduced : string;
}

type report = {
  seed : int;
  executed : int;
  unsafe : bool;
  passes : int;
  crashes : int;
  per_oracle : (string * int) list;
  failures : failure list;
}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let oracle_for (config : config) src =
  let real () =
    Oracle.run ~fuel:config.fuel ~expect_clean:(not config.gen.unsafe) src
  in
  match config.fail_on with
  | Some sub when contains src sub -> (
    (* only well-formed programs take the injected failure, so shrink
       candidates that break the frontend change signature and are
       rejected — the reduced reproducer always compiles *)
    match Hypar_minic.Driver.compile ~name:"fuzz" src with
    | Ok _ ->
      Oracle.Fail
        {
          oracle = "injected";
          signature = "injected";
          detail = Printf.sprintf "source contains %S" sub;
        }
    | Error _ -> real ())
  | _ -> real ()

let judge (config : config) index =
  let case_seed = Rng.derive ~seed:config.seed index in
  let src = Gen.source ~config:config.gen case_seed in
  (case_seed, src, oracle_for config src)

let shrink_failure (config : config) finding case_seed src =
  if not config.shrink then src
  else
    let keep ast =
      match oracle_for config (Pp.program ast) with
      | Oracle.Fail f -> f.Oracle.signature = finding.Oracle.signature
      | Oracle.Pass -> false
    in
    let ast = Gen.program ~config:config.gen case_seed in
    (* the printed generation is what failed; shrink from its AST *)
    if not (keep ast) then src
    else Pp.program (Shrink.minimize ~max_rounds:config.shrink_rounds ~keep ast)

let run (config : config) =
  let n = max 0 config.count in
  let cases =
    match config.budget_ms with
    | None ->
      Hypar_obs.Pool.map ~jobs:config.jobs (judge config) (Array.init n Fun.id)
    | Some budget ->
      (* budgeted campaigns run sequentially: the executed count is then
         a deterministic prefix 0..k of the counted campaign, merely cut
         at a time-dependent k *)
      let deadline = Unix.gettimeofday () +. (float_of_int budget /. 1000.) in
      let acc = ref [] in
      (try
         for i = 0 to n - 1 do
           if Unix.gettimeofday () > deadline then raise Exit;
           acc := judge config i :: !acc
         done
       with Exit -> ());
      Array.of_list (List.rev !acc)
  in
  let failures =
    Array.to_list cases
    |> List.mapi (fun index (case_seed, src, verdict) ->
           match verdict with
           | Oracle.Pass -> None
           | Oracle.Fail finding ->
             let reduced = shrink_failure config finding case_seed src in
             Some { index; case_seed; finding; source = src; reduced })
    |> List.filter_map Fun.id
  in
  let per_oracle =
    List.fold_left
      (fun acc f ->
        let key = f.finding.Oracle.oracle in
        let n = Option.value ~default:0 (List.assoc_opt key acc) in
        (key, n + 1) :: List.remove_assoc key acc)
      [] failures
    |> List.sort compare
  in
  let crashes =
    List.length
      (List.filter
         (fun f ->
           String.length f.finding.Oracle.oracle >= 6
           && String.sub f.finding.Oracle.oracle 0 6 = "crash/")
         failures)
  in
  {
    seed = config.seed;
    executed = Array.length cases;
    unsafe = config.gen.Gen.unsafe;
    passes = Array.length cases - List.length failures;
    crashes;
    per_oracle;
    failures;
  }

(* --- rendering ---------------------------------------------------------- *)

let to_text (r : report) =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "hypar fuzz: seed %d, %d programs, %s grammar\n" r.seed r.executed
    (if r.unsafe then "unsafe" else "safe");
  add "passes: %d\n" r.passes;
  add "divergences: %d\n" (List.length r.failures);
  add "crashes: %d\n" r.crashes;
  List.iter (fun (oracle, n) -> add "  %s: %d\n" oracle n) r.per_oracle;
  List.iter
    (fun f ->
      add "case %d (seed %d): %s\n" f.index f.case_seed f.finding.Oracle.signature;
      add "  oracle: %s\n" f.finding.Oracle.oracle;
      add "  detail: %s\n" f.finding.Oracle.detail;
      add "  reduced reproducer:\n";
      let n = String.length f.reduced in
      let src =
        if n > 0 && f.reduced.[n - 1] = '\n' then String.sub f.reduced 0 (n - 1)
        else f.reduced
      in
      String.split_on_char '\n' src
      |> List.iter (fun line -> add "    %s\n" line))
    r.failures;
  Buffer.contents buf

let to_json (r : report) =
  let module J = Hypar_obs.Jsonv in
  let num n = J.Num (float_of_int n) in
  J.to_string
    (J.Obj
       [
         ("seed", num r.seed);
         ("executed", num r.executed);
         ("unsafe", J.Bool r.unsafe);
         ("passes", num r.passes);
         ("divergences", num (List.length r.failures));
         ("crashes", num r.crashes);
         ( "per_oracle",
           J.Obj (List.map (fun (o, n) -> (o, num n)) r.per_oracle) );
         ( "failures",
           J.Arr
             (List.map
                (fun f ->
                  J.Obj
                    [
                      ("index", num f.index);
                      ("seed", num f.case_seed);
                      ("oracle", J.Str f.finding.Oracle.oracle);
                      ("signature", J.Str f.finding.Oracle.signature);
                      ("detail", J.Str f.finding.Oracle.detail);
                      ("reduced", J.Str f.reduced);
                    ])
                r.failures) );
       ])
  ^ "\n"
