(* The planner evaluates each distinct design once.  These tests pin
   that sharing to the per-candidate semantics: an oracle runs every
   candidate's full pipeline on a fresh unit — plan-row lookup,
   analysis, rewrites, quick synthesis, plan-row save — and the planner
   must reproduce it row for row, under fault plans, and against a
   store the oracle filled. *)

module P = Uas_core.Planner
module R = Uas_bench_suite.Registry
module Cu = Uas_pass.Cu
module Diag = Uas_pass.Diag
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
module Rewrite = Uas_transform.Rewrite
module Fault = Uas_runtime.Fault
module Store = Uas_runtime.Store
module Instrument = Uas_runtime.Instrument
module Datapath = Uas_hw.Datapath

let benchmarks () = R.all () @ R.extras ()

let candidates_of (b : R.benchmark) =
  let depth =
    Option.value ~default:2
      (Uas_analysis.Loop_nest.depth_at b.R.b_program b.R.b_outer_index)
  in
  P.candidates ~depth ()

(* one candidate, alone, on a fresh unit *)
let oracle_row ?validate ~exact (b : R.benchmark) (c : P.candidate) : P.row =
  let target = Datapath.default in
  let outer_index = b.R.b_outer_index and inner_index = b.R.b_inner_index in
  let cu = Cu.make b.R.b_program ~outer_index ~inner_index in
  let kind = "plan-row" in
  let context =
    P.row_context ?validate ~exact ~target ~outer_index ~inner_index c
  in
  (* the lookup still happens, so store fault sites count it *)
  match Cu.store_get cu ~kind ~context with
  | Some _ -> Alcotest.failf "%s: the oracle runs cold" c.P.c_label
  | None ->
    let rewrites =
      List.map
        (fun name ->
          if String.equal name "squash" then
            Rewrite.pass ~factor:c.P.c_ds ?validate "squash"
          else Rewrite.pass ?validate name)
        c.P.c_sequence
    in
    let passes =
      (Stages.analyze :: rewrites)
      @ [ Stages.dfg_build ~target ();
          Stages.schedule ~target ~pipelined:c.P.c_pipelined ();
          Stages.estimate ~target ~pipelined:c.P.c_pipelined
            ~name:c.P.c_label () ]
    in
    let row =
      match Pass.run cu passes with
      | Ok cu ->
        { P.r_candidate = c;
          r_outcome = Ok (Option.get (Cu.report cu));
          r_certificate =
            (if exact = Uas_dfg.Sched.Exact_report then Cu.certificate cu
             else None);
          r_incidents = Cu.incidents cu }
      | Error d ->
        { P.r_candidate = c;
          r_outcome = Error d;
          r_certificate = None;
          r_incidents = [] }
    in
    Cu.store_put cu ~kind ~context (P.row_payload row);
    row

(* the per-candidate plan: every candidate in order, in its own scope *)
let oracle_plan ?validate ~exact (b : R.benchmark) =
  candidates_of b
  |> List.map (fun (c : P.candidate) ->
         Fault.with_scope
           (b.R.b_name ^ "/" ^ c.P.c_label)
           (fun () -> oracle_row ?validate ~exact b c))
  |> P.of_rows ~benchmark:b.R.b_name

let planned ?validate ~exact ~jobs (b : R.benchmark) =
  P.plan ~jobs ?validate ~exact b.R.b_program
    ~outer_index:b.R.b_outer_index ~inner_index:b.R.b_inner_index
    ~benchmark:b.R.b_name

let render plan = Fmt.str "%a" P.pp plan

let row_string (r : P.row) =
  String.concat "\n"
    ((r.P.r_candidate.P.c_label
     :: (match r.P.r_outcome with
        | Ok rep -> Uas_hw.Estimate.report_to_string rep
        | Error d -> "error " ^ Diag.to_string d)
     :: (match r.P.r_certificate with
        | None -> "cert -"
        | Some c -> Uas_dfg.Sched.certificate_to_string c)
     :: List.map Diag.to_string r.P.r_incidents))

let check_same ~what (want : P.plan) (got : P.plan) =
  Alcotest.(check (list string))
    (what ^ ": rows") (List.map row_string want.P.p_rows)
    (List.map row_string got.P.p_rows);
  Alcotest.(check bool)
    (what ^ ": rows structurally equal") true
    (want.P.p_rows = got.P.p_rows);
  Alcotest.(check string) (what ^ ": rendering") (render want) (render got)

let clean () =
  Fault.clear ();
  Store.uninstall ();
  Instrument.reset ();
  Instrument.set_enabled false

let store_counter = ref 0

let with_fresh_store f =
  incr store_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "uas-planner-store-%d-%d" (Unix.getpid ())
         !store_counter)
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  match Store.open_dir dir with
  | Error m -> Alcotest.failf "open_dir %s: %s" dir m
  | Ok s ->
    Store.install s;
    Fun.protect
      ~finally:(fun () ->
        Store.uninstall ();
        rm_rf dir)
      (fun () -> f s)

(* entries on disk per artifact kind (objects/<kind>/<xx>/<key>) *)
let entries_of_kind s kind =
  let dir = Filename.concat (Filename.concat (Store.dir s) "objects") kind in
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun n sub -> n + Array.length (Sys.readdir (Filename.concat dir sub)))
      0 (Sys.readdir dir)

(* --- the planner is the oracle, row for row ------------------------- *)

let test_matches_oracle () =
  clean ();
  List.iter
    (fun (b : R.benchmark) ->
      List.iter
        (fun (mode, validate, exact) ->
          let want = oracle_plan ?validate ~exact b in
          List.iter
            (fun jobs ->
              check_same
                ~what:(Printf.sprintf "%s %s -j %d" b.R.b_name mode jobs)
                want
                (planned ?validate ~exact ~jobs b))
            [ 1; 2 ])
        [ ("default", None, Uas_dfg.Sched.Exact_off);
          ("exact=report", None, Uas_dfg.Sched.Exact_report);
          ("validate", Some b.R.b_workload, Uas_dfg.Sched.Exact_off) ])
    (benchmarks ())

(* 120 estimated candidates over the six planned benchmarks are 48
   distinct designs *)
let test_sharing_counters () =
  clean ();
  Instrument.set_enabled true;
  Instrument.reset ();
  Fun.protect ~finally:clean (fun () ->
      List.iter
        (fun b -> ignore (planned ~exact:Uas_dfg.Sched.Exact_off ~jobs:2 b))
        (benchmarks ());
      let counter name =
        Option.value ~default:0 (List.assoc_opt name (Instrument.counters ()))
      in
      Alcotest.(check int) "plan.classes" 48 (counter "plan.classes");
      Alcotest.(check int) "plan.shared" 72 (counter "plan.shared");
      let calls name =
        match List.assoc_opt name (Instrument.spans ()) with
        | Some st -> st.Instrument.calls
        | None -> 0
      in
      Alcotest.(check int) "one schedule per design" 48 (calls "pass.schedule");
      Alcotest.(check int) "one squash per squashed design" 36
        (calls "pass.squash");
      Alcotest.(check int) "one analysis per candidate" 138
        (calls "pass.loop-nest"))

(* --- the store -------------------------------------------------------- *)

(* A store filled by the per-candidate path serves every plan row *)
let test_serves_oracle_store () =
  clean ();
  Fun.protect ~finally:clean (fun () ->
      with_fresh_store (fun s ->
          List.iter
            (fun (b : R.benchmark) ->
              let exact = Uas_dfg.Sched.Exact_report in
              let want = oracle_plan ~exact b in
              let before = Store.stats s in
              let got = planned ~exact ~jobs:2 b in
              let after = Store.stats s in
              let n = List.length (candidates_of b) in
              Alcotest.(check int)
                (b.R.b_name ^ ": every plan row served") n
                (after.Store.st_hits - before.Store.st_hits);
              Alcotest.(check int)
                (b.R.b_name ^ ": no other lookup") n
                (after.Store.st_hits + after.Store.st_misses
                + after.Store.st_bad
                - (before.Store.st_hits + before.Store.st_misses
                  + before.Store.st_bad));
              Alcotest.(check int)
                (b.R.b_name ^ ": nothing written") 0
                (after.Store.st_writes - before.Store.st_writes);
              check_same ~what:(b.R.b_name ^ " served") want got)
            (benchmarks ())))

(* A cold plan saves one plan row per candidate but one schedule and
   one report per distinct design; the per-candidate path saved one
   of each per estimated candidate *)
let test_store_writes_per_design () =
  clean ();
  let b = R.skipjack_mem () in
  let exact = Uas_dfg.Sched.Exact_off in
  Fun.protect ~finally:clean (fun () ->
      let counts s =
        ( fst (Store.scan s),
          List.map (entries_of_kind s) [ "plan-row"; "schedule"; "report" ] )
      in
      with_fresh_store (fun s ->
          ignore (planned ~exact ~jobs:2 b);
          Alcotest.(check (pair int (list int)))
            "planner: 23 plan rows, 8 schedules, 8 reports" (39, [ 23; 8; 8 ])
            (counts s));
      with_fresh_store (fun s ->
          ignore (oracle_plan ~exact b);
          Alcotest.(check (pair int (list int)))
            "per candidate: 23 plan rows, 20 schedules, 20 reports"
            (63, [ 23; 20; 20 ])
            (counts s)))

(* A class shares its remainder, never its members' own history: with
   the plan rows of three same-design candidates rotted on disk, the
   three are re-evaluated as one class, and each row carries its own
   bad-entry incident ahead of the shared result. *)
let test_members_keep_own_incidents () =
  clean ();
  let b = R.skipjack_mem () in
  let exact = Uas_dfg.Sched.Exact_off in
  let rotted = [ "squash(4)"; "hoist+squash(4)"; "scalarize+squash(4)" ] in
  Fun.protect ~finally:clean (fun () ->
      with_fresh_store (fun s ->
          let cold = planned ~exact ~jobs:2 b in
          List.iter
            (fun (c : P.candidate) ->
              if List.mem c.P.c_label rotted then begin
                let cu =
                  Cu.make b.R.b_program ~outer_index:b.R.b_outer_index
                    ~inner_index:b.R.b_inner_index
                in
                let key =
                  Cu.store_key cu ~kind:"plan-row"
                    ~context:
                      (P.row_context ~exact ~target:Datapath.default
                         ~outer_index:b.R.b_outer_index
                         ~inner_index:b.R.b_inner_index c)
                in
                let path =
                  List.fold_left Filename.concat (Store.dir s)
                    [ "objects"; "plan-row"; String.sub key 0 2; key ]
                in
                let oc =
                  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644
                    path
                in
                output_string oc "rot";
                close_out oc
              end)
            (candidates_of b);
          Instrument.set_enabled true;
          Instrument.reset ();
          let warm = planned ~exact ~jobs:2 b in
          let counter name =
            Option.value ~default:0
              (List.assoc_opt name (Instrument.counters ()))
          in
          Alcotest.(check (pair int int))
            "one class of three" (1, 2)
            (counter "plan.classes", counter "plan.shared");
          List.iter2
            (fun (want : P.row) (got : P.row) ->
              let label = want.P.r_candidate.P.c_label in
              if List.mem label rotted then begin
                Alcotest.(check (list string))
                  (label ^ ": its own bad-entry incident")
                  [ "store" ]
                  (List.map (fun d -> d.Diag.d_pass) got.P.r_incidents);
                Alcotest.(check string) (label ^ ": the shared result")
                  (row_string want)
                  (row_string { got with P.r_incidents = [] })
              end
              else
                Alcotest.(check string) (label ^ ": served") (row_string want)
                  (row_string got))
            cold.P.p_rows warm.P.p_rows))

(* --- fault replay ------------------------------------------------------ *)

let arm plan =
  match Fault.arm plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "bad fault plan %S: %s" plan m

(* With a fault plan armed, every candidate is its own class: the
   rendered plan is the per-candidate one, fault for fault *)
let test_fault_replay () =
  clean ();
  let iir = R.iir () and skipjack = R.skipjack_mem () in
  let replay ~plan ?(prefill = false) ?validate ~exact ~expect
      (b : R.benchmark) =
    let run f =
      let go () =
        if prefill then ignore (oracle_plan ~exact:Uas_dfg.Sched.Exact_off b);
        arm plan;
        Fun.protect ~finally:Fault.clear f
      in
      if prefill then with_fresh_store (fun _ -> go ()) else go ()
    in
    let want = run (fun () -> oracle_plan ?validate ~exact b) in
    let got = run (fun () -> planned ?validate ~exact ~jobs:1 b) in
    let what = b.R.b_name ^ " under " ^ plan in
    Alcotest.(check bool)
      (what ^ ": the fault fired") true
      (Helpers.contains ~sub:expect (render want));
    check_same ~what want got
  in
  Fun.protect ~finally:clean (fun () ->
      List.iter
        (fun (b : R.benchmark) ->
          replay ~plan:"rewrite.apply=squash:corrupt:2"
            ~validate:b.R.b_workload ~exact:Uas_dfg.Sched.Exact_off
            ~expect:"validation failed, rewrite not applied" b;
          replay ~plan:"store.read=schedule:corrupt:1" ~prefill:true
            ~exact:Uas_dfg.Sched.Exact_report
            ~expect:"degraded: original — error[store]" b)
        [ skipjack; iir ];
      replay ~plan:"rewrite.apply=IIR/hoist+squash(4):raise:1"
        ~exact:Uas_dfg.Sched.Exact_off
        ~expect:"skipped: hoist+squash(4) — error[hoist]" iir)

let suite =
  [ Alcotest.test_case "planner matches the per-candidate oracle" `Slow
      test_matches_oracle;
    Alcotest.test_case "planner evaluates 48 distinct designs" `Quick
      test_sharing_counters;
    Alcotest.test_case "planner served by a per-candidate store" `Slow
      test_serves_oracle_store;
    Alcotest.test_case "planner stores one schedule per design" `Quick
      test_store_writes_per_design;
    Alcotest.test_case "planner class members keep their own incidents"
      `Quick test_members_keep_own_incidents;
    Alcotest.test_case "planner fault replay is per candidate" `Slow
      test_fault_replay ]
