(** Scheduling (§3.5): initiation intervals and issue times under the
    datapath's memory-port budget.

    [list_schedule] models the original, non-overlapped execution (II =
    schedule length).  [optimal_schedule] is the one modulo scheduler
    for pipelined execution: a branch-and-bound over the modulo
    reservation table that iterates the II upward from [min_ii], proves
    each candidate infeasible or returns a witness, and so certifies
    the first feasible II optimal.  A register-aware completion step
    ([compact_registers]) then shortens value lifetimes at that II.
    When the deterministic effort budget runs out first, the list
    schedule is the fallback.  [check_schedule] validates any schedule
    against the raw constraint system, independently of both
    schedulers. *)

type config = { mem_ports : int (** references per clock; §6.1 uses 2 *) }

val default_config : config

type schedule = {
  s_ii : int;  (** initiation interval in cycles *)
  s_times : int array;  (** issue cycle of every node *)
  s_length : int;  (** makespan of one iteration *)
}

(** ceil(memory ops / ports). *)
val resource_mii : config -> Graph.t -> int

(** max(1, RecMII, ResMII): the pipelined lower bound. *)
val min_ii : config -> Graph.t -> int

(** Resource-constrained acyclic scheduling of one iteration
    (distance-0 edges only). *)
val list_schedule : ?cfg:config -> Graph.t -> schedule

(** Verify a schedule against the constraint system itself — every
    dependence edge ([t(dst) >= t(src) + delay(src) - II*distance]),
    every modulo reservation row (at most [mem_ports] memory ops per
    residue class mod II), non-negative issue times, and makespan
    consistency.  [Error] carries one message per violated constraint.
    The always-on post-condition of the [schedule] pass. *)
val check_schedule :
  ?cfg:config -> Graph.t -> schedule -> (unit, string list) result

(** Verdict of the modulo scheduler. *)
type exact_status =
  | Exact_optimal  (** witness at the first feasible II: certified *)
  | Exact_feasible
      (** the budget ran out mid-proof: the schedule is the list
          fallback and the optimum lies in [[cert_proved, its II]] *)

val exact_status_name : exact_status -> string

(** What the search proved about the II of the schedule it returned. *)
type certificate = {
  cert_status : exact_status;
  cert_proved : int;
      (** smallest II not proven infeasible: every II below it was
          refuted by exhaustive search (= the II when optimal) *)
  cert_expansions : int;  (** branch-and-bound nodes expanded *)
}

(** The modulo scheduler.  Deterministic: the [effort] budget counts
    edge relaxations, not wall-clock.  [compact] (default true) runs
    {!compact_registers} on the certified witness; the tests turn it
    off to compare against the raw witness. *)
val optimal_schedule :
  ?cfg:config ->
  ?effort:int ->
  ?compact:bool ->
  Graph.t ->
  schedule * certificate

(** Default effort budget of {!optimal_schedule} (edge relaxations). *)
val default_exact_effort : int

(** The register-aware completion step: with the II and every memory
    node's residue fixed (so the reservation table is unchanged),
    move single nodes — non-memory ones by cycles, memory ones by whole
    IIs — inside the schedule's makespan and its dependences whenever
    that lowers the registers of the node and its producers.  Never
    raises {!register_estimate} or the makespan; the result passes
    {!check_schedule} (the input is returned if it would not). *)
val compact_registers : ?cfg:config -> Graph.t -> schedule -> schedule

(** [Some message] when the certificate records an exhausted budget,
    i.e. the schedule is the non-overlapped fallback. *)
val degradation_note : schedule -> certificate -> string option

(** Whether the pipelines render each pipelined cell's certificate as
    an [exact:] footnote ([Exact_report]) or not ([Exact_off], the
    default).  Scheduling is the same either way. *)
type exact_mode = Exact_off | Exact_report

val exact_mode_name : exact_mode -> string
val exact_mode_of_string : string -> exact_mode option

(** One certificate as the footnotes print it. *)
val pp_certificate : certificate Fmt.t

(** Hardware registers implied by a schedule: one per move node plus
    one per II-window each computed value stays live (modulo variable
    expansion). *)
val register_estimate : Graph.t -> schedule -> int

val pp_schedule : schedule Fmt.t

(** {2 Serialization (artifact store)}

    Versioned, all-integer, single-line textual forms.  [*_of_string]
    returns [None] on any malformed or version-mismatched input — the
    store treats an undecodable payload as a miss. *)

val schedule_to_string : schedule -> string
val schedule_of_string : string -> schedule option
val certificate_to_string : certificate -> string
val certificate_of_string : string -> certificate option
