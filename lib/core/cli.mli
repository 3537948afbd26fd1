(** Argument parsing for the bench harness (bench/main.exe).

    Kept in the library rather than the executable so the target parser
    is unit-testable: historically an unknown target only failed after
    the (expensive) targets before it had already run. [parse] now
    validates the whole command line up front. *)

type options = {
  o_jobs : int option;  (** [-j N] / [--jobs N]: worker-pool size *)
  o_timings : bool;  (** [--timings]: print the instrumentation summary *)
  o_interp : Uas_ir.Fast_interp.tier option;
      (** [--interp ref|fast]: interpreter tier (default: the
          process-wide {!Uas_ir.Fast_interp.default_tier}) *)
  o_json : string option;
      (** [--json FILE]: write the perf-trajectory JSON here *)
  o_validate : bool;
      (** [--validate off|probe]: translation-validate every rewrite on
          the benchmark workload (default off) *)
  o_exact : Uas_dfg.Sched.exact_mode;
      (** [--exact-ii off|report]: footnote every pipelined cell with
          its scheduling certificate ([report]); default off *)
  o_task_timeout : float option;
      (** [--task-timeout SECS]: per-task wall budget for the pool *)
  o_retries : int option;
      (** [--retries N]: retry budget for retryable task failures *)
  o_fault : string option;
      (** [--fault PLAN]: arm the fault-injection registry (testing;
          same grammar as [UAS_FAULT]) *)
  o_cache : string option;
      (** [--cache DIR]: persistent artifact store directory (default:
          the [UAS_CACHE] environment variable; none = no store) *)
  o_cache_verify : bool;
      (** [--cache-verify]: recompute everything and compare against
          cached artifacts (mismatches become incidents) *)
  o_cache_warm : bool;
      (** [--cache-warm]: after the cold pass, run every requested
          target a second time, recording "<target> (warm)" wall-clock
          — the cold-vs-warm numbers of the committed snapshot *)
  o_version : bool;
      (** [--version]: print the build version line and exit 0 *)
  o_targets : string list;
      (** requested targets, in command-line order; empty = run all *)
}

(** Parse a bench command line.  Every non-flag argument must be a
    member of [available]; the first unknown one yields [Error] with a
    message naming it and listing the valid targets.  [-j] requires a
    positive integer, [--interp] one of [ref]/[fast], [--json] a file
    name, [--validate] one of [off]/[probe], [--exact-ii] one of
    [off]/[report], [--task-timeout] positive seconds,
    [--retries] a non-negative integer, [--fault] a plan string
    (validated when armed, not here), [--cache] a directory
    (opened/validated when installed, not here). *)
val parse : available:string list -> string list -> (options, string) result
