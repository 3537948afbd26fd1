(** The cost-model-driven transform planner: enumerate rewrite
    sequences ending in unroll-and-squash (enabling prefixes from the
    {!Uas_transform.Rewrite} registry × DS in [{2, 4, 8}]), score each
    with the §5.2 quick-synthesis estimate on the sweep engine's
    memoized pass pipeline, and rank by an objective.  Illegal
    candidates keep their diagnostics and rank last, so the table
    accounts for the whole search space. *)

module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath
module Diag = Uas_pass.Diag

(** What the ranking optimizes: kernel initiation interval, area rows,
    or speedup per area (the Figure 6.3 efficiency metric, the
    default). *)
type objective = Ii | Area | Ratio

val objective_name : objective -> string

(** ["ii"], ["area"], ["ratio"]. *)
val objective_of_string : string -> objective option

(** A point of the search space. *)
type candidate = {
  c_label : string;  (** e.g. ["hoist+squash(4)"], ["original"] *)
  c_sequence : string list;  (** registry names, applied in order *)
  c_ds : int;  (** squash factor; 1 on the baselines *)
  c_pipelined : bool;  (** modulo-scheduled kernel? *)
}

(** The enabling prefixes explored, each a registry-name sequence. *)
val enabling_prefixes : string list list

(** The squash factors explored by default: [2; 4; 8]. *)
val default_factors : int list

(** The full search space: the [original]/[pipelined] baselines plus
    every enabling prefix × factor, squash last.  For a kernel nest of
    [depth] > 2 (default 2), every prefix is preceded by [depth - 2]
    flattens, which collapse the nest to the adjacent-pair shape squash
    requires. *)
val candidates : ?factors:int list -> ?depth:int -> unit -> candidate list

type row = {
  r_candidate : candidate;
  r_outcome : (Estimate.report, Diag.t) result;
  r_certificate : Uas_dfg.Sched.certificate option;
      (** with [exact = Exact_report] on a pipelined candidate: the
          modulo scheduler's certificate, rendered as an [exact:]
          footer via {!Uas_dfg.Sched.pp_certificate} *)
  r_incidents : Diag.t list;
      (** rewrites translation validation rejected along this
          candidate's sequence — the report then describes the
          last-known-good program; rendered as [degraded:] footers *)
}

type plan = {
  p_benchmark : string;
  p_objective : objective;
  p_baseline : Estimate.report option;  (** the original design's report *)
  p_rows : row list;  (** ranked, best first; skipped candidates last *)
}

(** Score every candidate on the benchmark nest and rank.  Ranking is
    deterministic (ties break on II, cycles, area, label).

    The search runs in two phases over the domain pool ([jobs]).  Phase
    1 takes each candidate through its plan-row store lookup, the
    analysis and its enabling prefix (every rewrite but the trailing
    squash).  Candidates whose prefix leaves the same program (by
    digest of its canonical text) at the same kernel location, with the
    same squash factor, pipelining flag and squash-or-not, form one
    class; phase 2 runs squash and quick synthesis once per class, on
    its first member in candidate order.  Each member's row carries the
    shared report under its own label, the shared certificate, and its
    own prefix incidents followed by the class's; each member gets its
    own plan-row entry, keyed and encoded as for a lone run.  Under an
    armed fault plan every candidate is its own class.  The instrument
    counters [plan.classes] and [plan.shared] count the classes and the
    candidates served by another member's evaluation.

    Fault tolerance: each candidate's phase-1 work, plan-row save and
    (as a class's first member) phase-2 work run inside a
    [Uas_runtime.Fault.with_scope] frame named ["<benchmark>/<label>"];
    [validate] translation-validates every rewrite on the probe
    workload (a rejected rewrite degrades the candidate to its
    last-known-good program, logged in [r_incidents]);
    [timeout_s]/[retries] supervise the pool, and a task the pool gives
    up on ranks its candidates last with a [task] diagnostic.

    [exact] (default [Exact_off]): [Exact_report] fills [r_certificate] with
    each pipelined candidate's scheduling certificate. *)
val plan :
  ?target:Datapath.t ->
  ?jobs:int ->
  ?objective:objective ->
  ?factors:int list ->
  ?validate:Uas_ir.Interp.workload ->
  ?exact:Uas_dfg.Sched.exact_mode ->
  ?timeout_s:float ->
  ?retries:int ->
  Uas_ir.Stmt.program ->
  outer_index:string ->
  inner_index:string ->
  benchmark:string ->
  plan

(** Rank scored rows, one per candidate, into a plan by [objective]
    (default [Ratio]) — the last step of {!plan}. *)
val of_rows : ?objective:objective -> benchmark:string -> row list -> plan

(** {2 The plan-row store entry}

    A scored row is stored under kind ["plan-row"], keyed by
    {!Uas_pass.Cu.store_key} on the benchmark's unmodified program with
    [row_context] as the context, and encoded by [row_payload]. *)

(** Everything a row depends on besides the program text: datapath,
    kernel location, the candidate, the footnote mode, whether rewrites
    are validated, the cost-model version and the effort budget. *)
val row_context :
  ?validate:Uas_ir.Interp.workload ->
  exact:Uas_dfg.Sched.exact_mode ->
  target:Datapath.t ->
  outer_index:string ->
  inner_index:string ->
  candidate ->
  string list

val row_payload : row -> string

(** The 1-based rank of the first estimated row whose candidate
    satisfies the predicate; [None] when every match was skipped. *)
val rank_of : plan -> (candidate -> bool) -> int option

(** The relative metrics of the ranking, against the original design's
    report. *)
val speedup : base:Estimate.report -> Estimate.report -> float

val area_factor : base:Estimate.report -> Estimate.report -> float

(** [speedup /. area_factor] — the Figure 6.3 efficiency metric. *)
val ratio : base:Estimate.report -> Estimate.report -> float

(** The ranked plan table, skipped candidates footnoted with their
    diagnostics. *)
val pp : plan Fmt.t
