(** The analysis and quick-synthesis passes of the Nimble-style flow,
    each a thin pass wrapper over an existing [lib/analysis] /
    [lib/dfg] / [lib/hw] stage.  The transform passes (squash, jam,
    interchange, ...) live in the [Uas_transform.Rewrite] registry and
    convert to passes through [Rewrite.pass].  See docs/PIPELINE.md for
    the pass-ordering table and the thesis section each pass
    reproduces. *)

module Datapath = Uas_hw.Datapath

(** ["loop-nest"]: locate the kernel nest and warm the def/use,
    liveness, and induction caches.  Fails with a diagnostic when the
    outer index heads no nest level. *)
val analyze : Pass.t

(** ["legality"]: the §4.1/§4.2 check at factor [ds]; fails with the
    verdict's violations when the nest is not transformable.  Squash
    and jam re-derive the verdict internally (it also carries their
    enabling rewrites), so this pass is for early/explicit checking. *)
val legality : ds:int -> Pass.t

(** ["dfg-build"]: build the kernel DFG artifact. *)
val dfg_build : ?target:Datapath.t -> unit -> Pass.t

(** ["schedule"]: schedule the kernel DFG (certified-optimal modulo
    scheduling when [pipelined], list scheduling otherwise), building
    the DFG first if missing.  The schedule and its certificate are one
    store artifact.  A modulo run that exhausts its effort budget
    degrades to the non-overlapped fallback with an incident logged on
    the unit.  {!Uas_dfg.Sched.check_schedule} is an always-on
    post-condition: a rejected schedule is replaced by the list
    schedule, one incident per violation. *)
val schedule : ?target:Datapath.t -> pipelined:bool -> unit -> Pass.t

(** ["estimate"]: assemble the hardware report from the cached DFG and
    schedule artifacts (building them if missing) — bit-identical to
    [Uas_hw.Estimate.kernel]. *)
val estimate : ?target:Datapath.t -> pipelined:bool -> ?name:string -> unit -> Pass.t

(** Every stage name above, in canonical pipeline order.  nimblec's
    [--dump-after] accepts these plus every registered rewrite name. *)
val names : string list
