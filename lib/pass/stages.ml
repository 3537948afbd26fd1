(* The analysis and quick-synthesis passes: each wraps one existing
   compiler stage in the Pass/Cu/Diag protocol.  (The transform passes
   live in the Uas_transform.Rewrite registry, which builds on this
   layer.)  Artifact-producing stages (dfg-build, schedule, estimate)
   are written ensure-style — they reuse a cached artifact when an
   earlier pass already built it, and build it themselves when run
   standalone — so pipelines stay composable without recomputation. *)

module Loop_nest = Uas_analysis.Loop_nest
module Legality = Uas_analysis.Legality
module Estimate = Uas_hw.Estimate
module Datapath = Uas_hw.Datapath

let analyze =
  Pass.v "loop-nest" (fun cu ->
      match
        Loop_nest.find_by_outer_index_opt (Cu.program cu) (Cu.outer_index cu)
      with
      | None ->
        Error
          (Diag.errorf ~pass:"loop-nest" ~loop:(Cu.outer_index cu)
             "no loop nest with outer index %s" (Cu.outer_index cu))
      | Some _ ->
        (* warm the caches the downstream passes consult *)
        ignore (Cu.nest cu);
        ignore (Cu.def_use cu);
        ignore (Cu.liveness cu);
        ignore (Cu.induction cu);
        Ok cu)

let legality ~ds =
  Pass.v "legality" (fun cu ->
      let verdict = Legality.check (Cu.nest cu) ~ds in
      if verdict.Legality.ok then Ok cu
      else
        Error
          (Diag.errorf ~pass:"legality" ~loop:(Cu.outer_index cu)
             "factor %d: %a" ds Legality.pp_verdict verdict))

(* ensure-style artifact accessors *)

let ensure_dfg ~target cu =
  match Cu.dfg cu with
  | Some d -> d
  | None ->
    let d =
      Estimate.kernel_detail ~target (Cu.program cu)
        ~index:(Cu.inner_index cu)
    in
    Cu.set_dfg cu d;
    d

(* ---- persistent-store payloads and contexts ----

   The schedule payload carries the modulo scheduler's certificate
   alongside the schedule itself, so a warm run replays an
   effort-exhausted incident and renders [exact:] footnotes
   byte-identical to the cold run.  The context lists hash everything
   the computation depends on besides the program text and rewrite
   trail (which Cu.store_key adds): which loop is the kernel, the
   datapath, the pipelining flag, the effort budget, the cost-model
   version and — for reports — the report name. *)

let schedule_payload (s, cert) =
  (match cert with
  | None -> "cert -"
  | Some c -> Uas_dfg.Sched.certificate_to_string c)
  ^ "\n"
  ^ Uas_dfg.Sched.schedule_to_string s

let schedule_of_payload payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some i -> (
    let first = String.sub payload 0 i in
    let rest = String.sub payload (i + 1) (String.length payload - i - 1) in
    let cert =
      if String.equal first "cert -" then Some None
      else Option.map Option.some (Uas_dfg.Sched.certificate_of_string first)
    in
    match (cert, Uas_dfg.Sched.schedule_of_string rest) with
    | Some cert, Some s -> Some (s, cert)
    | _ -> None)

let schedule_context ~target ~pipelined cu =
  [ "target=" ^ Datapath.fingerprint target;
    "kernel=" ^ Cu.inner_index cu;
    "pipelined=" ^ string_of_bool pipelined;
    "effort=" ^ string_of_int Uas_dfg.Sched.default_exact_effort;
    "cost-model=" ^ string_of_int Estimate.cost_model_version ]

(* The [schedule] pass's post-condition, on fresh and cached schedules
   alike: a schedule the checker rejects (a scheduler bug, or a store
   entry that decodes to a wrong schedule) is replaced by the list
   schedule, with the violations on record. *)
let checked ~target cu (detail : Uas_dfg.Build.detailed) (s, cert) =
  let cfg = Datapath.sched_config target in
  match Uas_dfg.Sched.check_schedule ~cfg detail.Uas_dfg.Build.d_graph s with
  | Ok () -> (s, cert)
  | Error msgs ->
    List.iter
      (fun m ->
        Cu.add_incident cu
          (Diag.errorf ~pass:"schedule"
             "schedule invalid: %s; degraded to the non-overlapped schedule"
             m))
      msgs;
    (Uas_dfg.Sched.list_schedule ~cfg detail.Uas_dfg.Build.d_graph, None)

let ensure_schedule ~target ~pipelined cu =
  match Cu.schedule cu with
  | Some s -> s
  | None ->
    let detail = ensure_dfg ~target cu in
    let context = schedule_context ~target ~pipelined cu in
    let cached =
      match Cu.store_get cu ~kind:"schedule" ~context with
      | None -> None
      | Some payload -> (
        match schedule_of_payload payload with
        | Some _ as ok -> ok
        | None ->
          Cu.store_undecodable cu ~kind:"schedule";
          None)
    in
    let s, cert =
      match cached with
      | Some sc -> sc
      | None ->
        let sc = Estimate.kernel_schedule_cert ~target ~pipelined detail in
        Cu.store_put cu ~kind:"schedule" ~context (schedule_payload sc);
        sc
    in
    (* an exhausted effort budget degrades the cell, it never hangs the
       sweep: the certificate becomes a footnoted incident on the unit,
       replayed from a cached entry exactly like the cold run logged
       it *)
    (match cert with
    | Some c -> (
      match Uas_dfg.Sched.degradation_note s c with
      | Some m -> Cu.add_incident cu (Diag.errorf ~pass:"schedule" "%s" m)
      | None -> ())
    | None -> ());
    let s, certificate = checked ~target cu detail (s, cert) in
    Cu.set_schedule ?certificate cu s;
    s

let dfg_build ?(target = Datapath.default) () =
  Pass.v "dfg-build" (fun cu ->
      ignore (ensure_dfg ~target cu);
      Ok cu)

let schedule ?(target = Datapath.default) ~pipelined () =
  Pass.v "schedule" (fun cu ->
      ignore (ensure_schedule ~target ~pipelined cu);
      Ok cu)

let estimate ?(target = Datapath.default) ~pipelined ?name () =
  Pass.v "estimate" (fun cu ->
      let resolved_name =
        match name with
        | Some n -> n
        | None -> (Cu.program cu).Uas_ir.Stmt.prog_name
      in
      let context =
        schedule_context ~target ~pipelined cu @ [ "name=" ^ resolved_name ]
      in
      let cached =
        match Cu.store_get cu ~kind:"report" ~context with
        | None -> None
        | Some payload -> (
          match Estimate.report_of_string payload with
          | Some _ as ok -> ok
          | None ->
            Cu.store_undecodable cu ~kind:"report";
            None)
      in
      let report =
        match cached with
        | Some r -> r
        | None ->
          let detail = ensure_dfg ~target cu in
          let sched = ensure_schedule ~target ~pipelined cu in
          let r =
            Estimate.assemble ~target ~pipelined ?name (Cu.program cu)
              ~index:(Cu.inner_index cu) detail sched
          in
          Cu.store_put cu ~kind:"report" ~context
            (Estimate.report_to_string r);
          r
      in
      Cu.set_report cu report;
      Ok cu)

let names =
  [ "loop-nest"; "legality"; "dfg-build"; "schedule"; "estimate" ]
