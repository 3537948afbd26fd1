(** Per-pass timing spans and counters for the sweep engine.

    Off by default: a disabled [span] is a direct call with no clock
    read, so instrumentation can stay compiled into the hot passes.
    When enabled (the [--timings] flag of bench/main.exe and
    nimblec), every span records wall-clock time into a registry
    shared by all pool domains and guarded by a single mutex — spans
    only lock on entry/exit, never during the timed work.

    The {!Uas_pass.Pass} runner names its spans [pass.<name>] — one per
    pipeline pass ([pass.loop-nest], [pass.squash], [pass.jam],
    [pass.dfg-build], [pass.schedule], [pass.estimate], plus
    [pass.verify] around interpreter replay).  The estimator's internal
    [dfg-build]/[schedule]/[estimate] spans remain for finer-grained
    attribution; inside a pass, [store.key] times artifact-store key
    construction, and the compilation unit publishes
    [cu.analysis-hit]/[cu.analysis-miss] counters. *)

(** Record spans and counters from now on ([true]) or make them
    no-ops ([false], the initial state). *)
val set_enabled : bool -> unit

val is_enabled : unit -> bool

(** [span name f] runs [f ()]; when enabled, its wall-clock duration is
    added to the stats of [name] (also on exception). *)
val span : string -> (unit -> 'a) -> 'a

(** [incr ?by name] bumps counter [name] (default [by = 1]); a no-op
    when disabled. *)
val incr : ?by:int -> string -> unit

(** Drop all recorded spans and counters. *)
val reset : unit -> unit

type span_stat = {
  calls : int;
  total_s : float;  (** summed wall-clock seconds *)
  max_s : float;  (** longest single call *)
}

(** Snapshot of every recorded span, most total time first (ties by
    name). *)
val spans : unit -> (string * span_stat) list

(** Snapshot of every counter, by name. *)
val counters : unit -> (string * int) list

(** The summary table: one row per span (calls, total, mean, max in
    milliseconds) followed by the counters. *)
val pp_summary : unit Fmt.t

(** The same data as a JSON object:
    [{"spans": {name: {"calls": n, "total_ms": x, "mean_ms": x,
    "max_ms": x}}, "counters": {name: n}}]. *)
val to_json : unit -> string

(** Escape a string for embedding in a JSON string literal (also used
    by {!Trajectory}). *)
val json_escape : string -> string
