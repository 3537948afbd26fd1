(* The cost-model-driven transform planner: enumerate legal rewrite
   sequences ending in unroll-and-squash, score each with the §5.2
   quick-synthesis estimate, and rank them by an objective.

   A candidate is an enabling prefix (hoist, if-conversion,
   scalarization, scalar cleanup, interchange — the §4.2 rewrites that
   widen squash's applicability or shrink its kernel) followed by
   squash at DS in {2, 4, 8}; the two untransformed designs (original,
   pipelined) anchor the ranking.  Candidates run the same memoized
   pass pipeline the sweep engine uses — analyze, the rewrite passes
   from the registry, then dfg-build/schedule/estimate — in two phases
   over the domain pool: phase 1 takes each candidate through its
   enabling prefix, phase 2 runs squash and quick synthesis once per
   distinct resulting design and hands the result to every candidate
   that reached it (see "the two-phase search" below).  An illegal
   candidate keeps its diagnostic and ranks below every estimated one,
   so a plan table always accounts for the full search space. *)

module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath
module Parallel = Uas_runtime.Parallel
module Instrument = Uas_runtime.Instrument
module Fault = Uas_runtime.Fault
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
module Rewrite = Uas_transform.Rewrite

type objective = Ii | Area | Ratio

let objective_name = function Ii -> "ii" | Area -> "area" | Ratio -> "ratio"

let objective_of_string = function
  | "ii" -> Some Ii
  | "area" -> Some Area
  | "ratio" -> Some Ratio
  | _ -> None

(** A point of the search space: the rewrite sequence (registry names;
    squash last carries the factor) and the squash factor, or one of
    the two baselines at [ds = 1]. *)
type candidate = {
  c_label : string;
  c_sequence : string list;  (** registry names, applied in order *)
  c_ds : int;  (** squash factor; 1 on the baselines *)
  c_pipelined : bool;  (** modulo-scheduled kernel? *)
}

(** The enabling prefixes the planner explores, each a registry-name
    sequence. *)
let enabling_prefixes : string list list =
  [ []; [ "hoist" ]; [ "ifconv" ]; [ "scalarize" ]; [ "scalar-opts" ];
    [ "interchange" ]; [ "hoist"; "scalar-opts" ] ]

let default_factors = [ 2; 4; 8 ]

let label_of sequence ds =
  match sequence with
  | [] -> Printf.sprintf "squash(%d)" ds
  | prefix ->
    Printf.sprintf "%s+squash(%d)" (String.concat "+" prefix) ds

(** The search space for a kernel nest of the given depth (default 2).
    Deeper nests prepend one flatten per extra level to every prefix:
    squash needs an adjacent pair with a loop-free inner body, and each
    flatten collapses the top pair, so depth d takes d-2 of them. *)
let candidates ?(factors = default_factors) ?(depth = 2) () : candidate list =
  let flatten_prefix = List.init (max 0 (depth - 2)) (fun _ -> "flatten") in
  { c_label = "original"; c_sequence = []; c_ds = 1; c_pipelined = false }
  :: { c_label = "pipelined"; c_sequence = []; c_ds = 1; c_pipelined = true }
  :: List.concat_map
       (fun prefix ->
         let prefix = flatten_prefix @ prefix in
         List.map
           (fun ds ->
             { c_label = label_of prefix ds;
               c_sequence = prefix @ [ "squash" ];
               c_ds = ds;
               c_pipelined = true })
           factors)
       enabling_prefixes

(** One scored candidate: the estimate report, or the diagnostic of the
    pass that rejected it.  [r_incidents] carries the non-fatal trouble
    the candidate's pipeline degraded around (rewrites rejected by
    translation validation) — its report then describes the
    last-known-good program of the sequence. *)
type row = {
  r_candidate : candidate;
  r_outcome : (Estimate.report, Diag.t) result;
  r_certificate : Uas_dfg.Sched.certificate option;
      (** with [exact = Exact_report] on a pipelined candidate: the
          modulo scheduler's certificate *)
  r_incidents : Diag.t list;
}

type plan = {
  p_benchmark : string;
  p_objective : objective;
  p_baseline : Estimate.report option;  (** the original design's report *)
  p_rows : row list;  (** ranked, best first; skipped candidates last *)
}

(* A candidate's rewrites split into its enabling prefix and whether a
   trailing squash follows; squash only ever comes last. *)
let split_sequence (c : candidate) =
  match List.rev c.c_sequence with
  | "squash" :: rev_prefix -> (List.rev rev_prefix, true)
  | _ -> (c.c_sequence, false)

(* ---- plan-row serialization (artifact store) ----

   A whole scored row — outcome (report or diagnostic), optional
   scheduling certificate, incident list — round-trips through a
   versioned line-based form, so a warm [plan] run replays every
   footnote byte-identically without running a single pass pipeline. *)

let severity_name = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Note -> "note"

let severity_of_name = function
  | "error" -> Some Diag.Error
  | "warning" -> Some Diag.Warning
  | "note" -> Some Diag.Note
  | _ -> None

(* one diagnostic as a single tab-separated line: String.escaped
   removes embedded tabs/newlines, and optional fields carry a -/+
   marker so [None] and [Some ""] stay distinct *)
let diag_atom (d : Diag.t) =
  let opt = function None -> "-" | Some s -> "+" ^ String.escaped s in
  String.concat "\t"
    [ severity_name d.Diag.d_severity;
      String.escaped d.Diag.d_pass;
      opt d.Diag.d_loc.Diag.loc_loop;
      opt d.Diag.d_loc.Diag.loc_stmt;
      String.escaped d.Diag.d_message ]

let diag_of_atom s : Diag.t option =
  let ( let* ) = Option.bind in
  let unesc x =
    match Scanf.unescaped x with v -> Some v | exception _ -> None
  in
  let opt = function
    | "-" -> Some None
    | x when String.length x >= 1 && Char.equal x.[0] '+' ->
      Option.map Option.some (unesc (String.sub x 1 (String.length x - 1)))
    | _ -> None
  in
  match String.split_on_char '\t' s with
  | [ sev_s; pass_s; loop_s; stmt_s; msg_s ] ->
    let* sev = severity_of_name sev_s in
    let* pass = unesc pass_s in
    let* loop = opt loop_s in
    let* stmt = opt stmt_s in
    let* msg = unesc msg_s in
    Some
      { Diag.d_severity = sev;
        d_pass = pass;
        d_loc = { Diag.loc_loop = loop; loc_stmt = stmt };
        d_message = msg }
  | _ -> None

let row_payload (row : row) =
  let b = Buffer.create 256 in
  Buffer.add_string b "plan-row 2\n";
  (match row.r_outcome with
  | Ok r ->
    Buffer.add_string b ("outcome ok " ^ Estimate.report_to_string r ^ "\n")
  | Error d -> Buffer.add_string b ("outcome err " ^ diag_atom d ^ "\n"));
  Buffer.add_string b
    ((match row.r_certificate with
     | None -> "cert -"
     | Some c -> Uas_dfg.Sched.certificate_to_string c)
    ^ "\n");
  List.iter
    (fun d -> Buffer.add_string b ("incident " ^ diag_atom d ^ "\n"))
    row.r_incidents;
  Buffer.contents b

let row_of_payload (c : candidate) payload : row option =
  let ( let* ) = Option.bind in
  let strip ~prefix s =
    let np = String.length prefix in
    if String.length s >= np && String.equal (String.sub s 0 np) prefix then
      Some (String.sub s np (String.length s - np))
    else None
  in
  match String.split_on_char '\n' payload with
  | "plan-row 2" :: outcome_l :: cert_l :: rest ->
    let* outcome =
      match strip ~prefix:"outcome ok " outcome_l with
      | Some r_s -> Option.map Result.ok (Estimate.report_of_string r_s)
      | None -> (
        match strip ~prefix:"outcome err " outcome_l with
        | Some d_s -> Option.map Result.error (diag_of_atom d_s)
        | None -> None)
    in
    let* certificate =
      if String.equal cert_l "cert -" then Some None
      else Option.map Option.some (Uas_dfg.Sched.certificate_of_string cert_l)
    in
    let rec incs acc = function
      | [] | [ "" ] -> Some (List.rev acc)
      | l :: rest ->
        let* d_s = strip ~prefix:"incident " l in
        let* d = diag_of_atom d_s in
        incs (d :: acc) rest
    in
    let* incidents = incs [] rest in
    Some
      { r_candidate = c;
        r_outcome = outcome;
        r_certificate = certificate;
        r_incidents = incidents }
  | _ -> None

(* everything a scored row depends on besides the benchmark program
   text (which Cu.store_key hashes): the candidate, the kernel
   location, the datapath, the footnote mode and effort budget, whether
   rewrites are translation-validated, and the cost-model version *)
let row_context ?validate ~exact ~target ~outer_index ~inner_index
    (c : candidate) =
  [ "target=" ^ Datapath.fingerprint target;
    "outer=" ^ outer_index;
    "inner=" ^ inner_index;
    "label=" ^ c.c_label;
    "seq=" ^ String.concat "+" c.c_sequence;
    "ds=" ^ string_of_int c.c_ds;
    "pipelined=" ^ string_of_bool c.c_pipelined;
    "exact=" ^ Uas_dfg.Sched.exact_mode_name exact;
    "validate=" ^ string_of_bool (Option.is_some validate);
    "cost-model=" ^ string_of_int Estimate.cost_model_version;
    "effort=" ^ string_of_int Uas_dfg.Sched.default_exact_effort ]

(* ---- metrics and ranking ---- *)

let speedup ~(base : Estimate.report) (r : Estimate.report) =
  float_of_int base.Estimate.r_total_cycles
  /. float_of_int (max 1 r.Estimate.r_total_cycles)

let area_factor ~(base : Estimate.report) (r : Estimate.report) =
  float_of_int r.Estimate.r_area_rows
  /. float_of_int (max 1 base.Estimate.r_area_rows)

let ratio ~base r = speedup ~base r /. area_factor ~base r

(* Smaller key ranks first; ties break deterministically on II, cycles,
   area, and finally the label, so plan tables are reproducible across
   domain pools. *)
let rank_key objective ~base (row : row) =
  match row.r_outcome with
  | Error _ -> (infinity, (max_int, max_int, max_int, row.r_candidate.c_label))
  | Ok r ->
    let primary =
      match objective with
      | Ii -> float_of_int r.Estimate.r_ii
      | Area -> float_of_int r.Estimate.r_area_rows
      | Ratio -> (
        match base with Some b -> -.ratio ~base:b r | None -> 0.0)
    in
    ( primary,
      ( r.Estimate.r_ii,
        r.Estimate.r_total_cycles,
        r.Estimate.r_area_rows,
        row.r_candidate.c_label ) )

(** Rank scored rows, one per candidate, into a plan. *)
let of_rows ?(objective = Ratio) ~benchmark rows : plan =
  let baseline =
    List.find_map
      (fun row ->
        match (row.r_candidate.c_label, row.r_outcome) with
        | "original", Ok r -> Some r
        | _ -> None)
      rows
  in
  let ranked =
    List.stable_sort
      (fun a b ->
        compare (rank_key objective ~base:baseline a)
          (rank_key objective ~base:baseline b))
      rows
  in
  { p_benchmark = benchmark;
    p_objective = objective;
    p_baseline = baseline;
    p_rows = ranked }

(* ---- the two-phase search ----

   Sharing is sound because everything after the prefix — squash,
   DFG, schedule, estimate — is a function of the prefix program, the
   kernel location, DS and the pipelining flag; the report's name is
   the one label-dependent field, and each member gets its own.  An
   armed fault plan breaks that (a fault changes what one candidate
   computes), so then every candidate is its own class. *)

(* What phase 2 needs of a candidate besides its class: its position,
   the unit its plan-row was looked up on (and is saved through), and
   its prefix incidents *)
type member = {
  m_index : int;
  m_candidate : candidate;
  m_origin : Cu.t;
  m_incidents : Diag.t list;
}

(* A candidate after phase 1: settled (served from the store, or
   rejected by its prefix), or staged for phase 2 with the unit its
   prefix produced and that program's text digest *)
type staged =
  | Settled of row
  | Staged of { origin : Cu.t; unit : Cu.t; digest : Digest.t }

(* A phase-2 class: the first member's prefix unit and its incident
   count at the end of phase 1 (where the remainder's incidents
   start), and the members, newest first *)
type design_class = {
  k_unit : Cu.t;
  k_prefix_incidents : int;
  mutable k_members : member list;
}

let error_row c d =
  { r_candidate = c;
    r_outcome = Error d;
    r_certificate = None;
    r_incidents = [] }

let task_failure_row c tf =
  Instrument.incr "plan.task-failures";
  error_row c
    (Diag.errorf ~pass:"task" "%s" (Parallel.Task_failure.to_message tf))

(* Group staged candidates into classes, in candidate order.  Only a
   class's first unit is kept: the others are dropped here. *)
let classes_of ~singletons (staged : (member * Cu.t * Digest.t) list) =
  let by_key = Hashtbl.create 32 and classes = ref [] in
  List.iter
    (fun (m, unit, digest) ->
      let c = m.m_candidate in
      let key =
        ( digest,
          Cu.outer_index unit,
          Cu.inner_index unit,
          c.c_ds,
          c.c_pipelined,
          snd (split_sequence c) )
      in
      match Hashtbl.find_opt by_key key with
      | Some k when not singletons -> k.k_members <- m :: k.k_members
      | _ ->
        let k =
          { k_unit = unit;
            k_prefix_incidents = List.length m.m_incidents;
            k_members = [ m ] }
        in
        Hashtbl.replace by_key key k;
        classes := k :: !classes)
    staged;
  List.rev !classes

(** Score every candidate of the search space on the benchmark nest and
    rank by [objective] (default: [Ratio], the Figure 6.3 efficiency
    metric).  Both phases fan out over the domain pool like sweep
    versions; a candidate's own work runs inside a fault scope named
    ["<benchmark>/<label>"], and a task the pool gives up on ranks its
    candidates last with a [task] diagnostic instead of aborting the
    plan. *)
let plan ?(target = Datapath.default) ?jobs ?(objective = Ratio)
    ?(factors = default_factors) ?validate ?(exact = Uas_dfg.Sched.Exact_off)
    ?timeout_s ?retries (p : Uas_ir.Stmt.program) ~outer_index ~inner_index
    ~benchmark : plan =
  let cands =
    let depth =
      Option.value ~default:2
        (Uas_analysis.Loop_nest.depth_at p outer_index)
    in
    candidates ~factors ~depth ()
  in
  let scoped (c : candidate) f =
    Fault.with_scope (benchmark ^ "/" ^ c.c_label) f
  in
  let kind = "plan-row" in
  let context c =
    row_context ?validate ~exact ~target ~outer_index ~inner_index c
  in
  let save origin (row : row) =
    Cu.store_put origin ~kind ~context:(context row.r_candidate)
      (row_payload row)
  in
  (* phase 1: plan-row lookup, analysis, enabling prefix *)
  let prefix (c : candidate) =
    let origin = Cu.make p ~outer_index ~inner_index in
    let cached =
      match Cu.store_get origin ~kind ~context:(context c) with
      | None -> None
      | Some payload -> (
        match row_of_payload c payload with
        | Some _ as ok -> ok
        | None ->
          Cu.store_undecodable origin ~kind;
          None)
    in
    match cached with
    | Some row -> Settled row
    | None -> (
      let rewrites = fst (split_sequence c) in
      match
        Pass.run origin
          (Stages.analyze
          :: List.map (fun name -> Rewrite.pass ?validate name) rewrites)
      with
      | Ok unit ->
        Staged
          { origin; unit; digest = Digest.string (Cu.canonical_text unit) }
      | Error d ->
        let row = error_row c d in
        save origin row;
        Settled row)
  in
  let rows = Array.make (List.length cands) None in
  let staged =
    List.combine cands
      (Parallel.map_results ?jobs ?timeout_s ?retries
         (fun c -> scoped c (fun () -> prefix c))
         cands)
    |> List.mapi (fun i (c, result) ->
           match result with
           | Ok (Settled row) ->
             rows.(i) <- Some row;
             None
           | Ok (Staged { origin; unit; digest }) ->
             let m =
               { m_index = i; m_candidate = c; m_origin = origin;
                 m_incidents = Cu.incidents unit }
             in
             Some (m, unit, digest)
           | Error tf ->
             rows.(i) <- Some (task_failure_row c tf);
             None)
    |> List.filter_map Fun.id
  in
  let classes =
    classes_of ~singletons:(Option.is_some (Fault.plan ())) staged
  in
  let n_classes = List.length classes in
  if n_classes > 0 then (
    Instrument.incr ~by:n_classes "plan.classes";
    Instrument.incr ~by:(List.length staged - n_classes) "plan.shared");
  (* phase 2: squash and quick synthesis, once per class *)
  let remainder k =
    let members = List.rev k.k_members in
    let rep = (List.hd members).m_candidate in
    let shared =
      scoped rep (fun () ->
          let passes =
            (if snd (split_sequence rep) then
               [ Rewrite.pass ~factor:rep.c_ds ?validate "squash" ]
             else [])
            @ [ Stages.dfg_build ~target ();
                Stages.schedule ~target ~pipelined:rep.c_pipelined ();
                Stages.estimate ~target ~pipelined:rep.c_pipelined
                  ~name:rep.c_label () ]
          in
          match Pass.run k.k_unit passes with
          | Ok cu -> (
            match Cu.report cu with
            | Some r ->
              let certificate =
                if exact = Uas_dfg.Sched.Exact_report then Cu.certificate cu
                else None
              in
              Ok
                ( r,
                  certificate,
                  List.filteri
                    (fun i _ -> i >= k.k_prefix_incidents)
                    (Cu.incidents cu) )
            | None ->
              assert false (* the estimate pass always sets the report *))
          | Error d -> Error d)
    in
    List.map
      (fun m ->
        let c = m.m_candidate in
        let row =
          match shared with
          | Ok (r, certificate, incidents) ->
            { r_candidate = c;
              r_outcome = Ok { r with Estimate.r_name = c.c_label };
              r_certificate = certificate;
              r_incidents = m.m_incidents @ incidents }
          | Error d -> error_row c d
        in
        scoped c (fun () -> save m.m_origin row);
        (m.m_index, row))
      members
  in
  List.iter2
    (fun k -> function
      | Ok rows_k -> List.iter (fun (i, row) -> rows.(i) <- Some row) rows_k
      | Error tf ->
        List.iter
          (fun m ->
            rows.(m.m_index) <- Some (task_failure_row m.m_candidate tf))
          k.k_members)
    classes
    (Parallel.map_results ?jobs ?timeout_s ?retries remainder classes);
  of_rows ~objective ~benchmark (Array.to_list rows |> List.map Option.get)

(** The rank (1-based, in plan order) of the first estimated row whose
    label satisfies the predicate. *)
let rank_of (plan : plan) f : int option =
  let rec go k = function
    | [] -> None
    | { r_candidate; r_outcome = Ok _; _ } :: _ when f r_candidate -> Some k
    | _ :: rest -> go (k + 1) rest
  in
  go 1 plan.p_rows

(* ---- rendering ---- *)

let pp ppf (plan : plan) =
  Fmt.pf ppf "plan for %s (objective: %s)@." plan.p_benchmark
    (objective_name plan.p_objective);
  Fmt.pf ppf "%-4s %-28s %4s %6s %6s %8s %8s %7s %7s@." "rank" "plan" "DS"
    "II" "sched" "area" "cycles" "speedup" "ratio";
  let rank = ref 0 in
  List.iter
    (fun row ->
      match row.r_outcome with
      | Ok r ->
        incr rank;
        let sp, rt =
          match plan.p_baseline with
          | Some base -> (speedup ~base r, ratio ~base r)
          | None -> (1.0, 1.0)
        in
        Fmt.pf ppf "%-4d %-28s %4d %6d %6d %8d %8d %7.2f %7.2f@." !rank
          row.r_candidate.c_label row.r_candidate.c_ds r.Estimate.r_ii
          r.Estimate.r_sched_len r.Estimate.r_area_rows
          r.Estimate.r_total_cycles sp rt
      | Error _ -> ())
    plan.p_rows;
  List.iter
    (fun row ->
      match row.r_certificate with
      | None -> ()
      | Some cert ->
        Fmt.pf ppf "exact: %s — %a@." row.r_candidate.c_label
          Uas_dfg.Sched.pp_certificate cert)
    plan.p_rows;
  List.iter
    (fun row ->
      List.iter
        (fun d ->
          Fmt.pf ppf "degraded: %s — %a@." row.r_candidate.c_label Diag.pp d)
        row.r_incidents)
    plan.p_rows;
  let skipped =
    List.filter_map
      (fun row ->
        match row.r_outcome with
        | Error d -> Some (row.r_candidate.c_label, d)
        | Ok _ -> None)
      plan.p_rows
  in
  List.iter
    (fun (label, d) -> Fmt.pf ppf "skipped: %s — %a@." label Diag.pp d)
    skipped
