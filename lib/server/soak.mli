(** The chaos soak harness behind [hypar soak].

    Drives [count] seeded requests — over a pool of fuzz-generated
    Mini-C programs plus (optionally) the crash corpus — through an
    in-process supervised server session with chaos injection, and
    asserts the supervision invariants:

    - exactly one response per request, no duplicate and no missing ids
      (crashed and wedged attempts were retried or quarantined, never
      dropped, and never answered twice);
    - the pool ends the session with [jobs] live workers (every killed
      worker was respawned);
    - the drain completes within the budget;
    - with chaos disabled, the supervised responses are identical to an
      inline baseline run over the same requests ([jobs = 1], no
      supervisor: supervision is pure overhead, not behaviour).

    Generated programs are written to a directory derived from the seed
    alone and each request body carries a unique tag, so request
    digests — and with them every chaos decision — are reproducible
    across reruns and identical for every [--jobs] value. *)

type config = {
  seed : int;
  count : int;
  budget_ms : int;  (** wall budget for the whole campaign *)
  jobs : int;
  chaos : Chaos.spec option;
  corpus_dir : string option;  (** mix in [test/corpus]-style entries *)
  max_retries : int;
  grace_ms : int;  (** wedge-detection grace of the supervised pool *)
  fuel : int;  (** per-request interpreter fuel cap *)
}

val default_config : config
(** seed 0, 100 requests, 60 s budget, 4 jobs, {!Chaos.default}, no
    corpus, 1 retry, 2 s grace (comfortably above the longest
    legitimate poll gap), 50k fuel. *)

type report = {
  seed : int;
  count : int;
  jobs : int;
  chaos_active : bool;
  responses : int;
  missing : int;
  duplicates : int;
  classes : (string * int) list;  (** responses per ["status"] value *)
  stats : Supervisor.stats;
  digest : string;  (** MD5 of the sorted response lines *)
  baseline_match : bool option;
  elapsed_ms : int;
  budget_ms : int;
  failures : string list;  (** empty iff the campaign passed *)
}

val passed : report -> bool

val run : config -> (report, string) result
(** [Error] is a setup failure (unreadable corpus); invariant violations
    land in [failures] instead. *)

val to_text : report -> string
(** Multi-line human summary ending in [result: PASS|FAIL].  The
    [digest:] line is stable across [--jobs] for a fixed seed, which is
    what the cram test compares. *)
