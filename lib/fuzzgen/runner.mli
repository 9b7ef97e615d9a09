(** Campaign driver: generate, judge, shrink, report.

    A campaign is a pure function of its {!config}: case [i] is judged
    on the program of seed [Rng.derive ~seed i], so any worker can
    evaluate any case without consuming the cases before it, and the
    merged report is byte-identical for every [--jobs] value.  Wall
    clock never enters the report; [budget_ms] only decides {e how many}
    cases run (and forces sequential evaluation), so a budgeted
    campaign's prefix matches the corresponding counted one.

    Failing cases are re-generated, shrunk sequentially (in case order)
    with {!Shrink.minimize} preserving the oracle signature, and
    reported with both the original seed and the reduced reproducer. *)

type config = {
  seed : int;  (** campaign seed *)
  count : int;  (** cases to run (upper bound under [budget_ms]) *)
  budget_ms : int option;  (** stop after this much wall time *)
  jobs : int;
      (** worker domains, capped at the core count ({!Hypar_obs.Pool.workers});
          never affects report bytes *)
  fuel : int;  (** baseline interpretation budget per case *)
  gen : Gen.config;
  shrink : bool;
  shrink_rounds : int;  (** accepted-reduction budget per failure *)
  fail_on : string option;
      (** testing hook: any program whose source contains this substring
          and still compiles is flagged with the synthetic [injected]
          oracle — a deterministic failure for exercising the shrinking
          and reporting pipeline end to end *)
}

val default : config
(** seed 1, count 100, no budget, 1 job, fuel 2_000_000,
    {!Gen.default_config}, shrinking on with 200 rounds. *)

type failure = {
  index : int;
  case_seed : int;
  finding : Oracle.finding;
  source : string;  (** the program as generated *)
  reduced : string;  (** minimal reproducer (equals [source] if shrinking
                         is off or no reduction survived) *)
}

type report = {
  seed : int;
  executed : int;
  unsafe : bool;
  passes : int;
  crashes : int;  (** failures whose oracle is a [crash/*] stage *)
  per_oracle : (string * int) list;
      (** failure counts keyed by oracle name, sorted; a case counts
          against the first oracle that flagged it *)
  failures : failure list;
}

val run : config -> report

val to_text : report -> string
val to_json : report -> string
(** Deterministic renderings: equal reports yield equal bytes. *)
