(* The repository benchmark: cold and warm Table 6.2, the cold planner
   and a warm nimbled daemon, measured from outside through the
   libraries' public calls.

     uasbench --workload NAME --seed N --seconds S --trace 0|1
              [--goldens DIR]

   Run from the root of a built checkout: it starts
   _build/default/bin/nimbled.exe and keeps its scratch files in
   .perfbench-work/.

   Prints one "name value unit" line per metric, then, as the last line
   of stdout, one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones of
   BENCHMARK.json, with --trace 1 the per-layer ones.  perfbench/run.py
   builds this program and nimbled and runs it; perfbench/README.md
   defines every metric. *)

let t_start = Unix.gettimeofday ()

module Registry = Uas_bench_suite.Registry
module Skipjack = Uas_bench_suite.Skipjack
module Des = Uas_bench_suite.Des
module Iir = Uas_bench_suite.Iir
module Experiments = Uas_core.Experiments
module Planner = Uas_core.Planner
module Nimble = Uas_core.Nimble
module Cu = Uas_pass.Cu
module Pass = Uas_pass.Pass
module Stages = Uas_pass.Stages
module Diag = Uas_pass.Diag
module Rewrite = Uas_transform.Rewrite
module Fast_interp = Uas_ir.Fast_interp
module Interp = Uas_ir.Interp
module Types = Uas_ir.Types
module Estimate = Uas_hw.Estimate
module Store = Uas_runtime.Store
module Parallel = Uas_runtime.Parallel
module Fault = Uas_runtime.Fault
module Client = Uas_service.Client
module Handler = Uas_service.Handler
module Protocol = Uas_service.Protocol

(* The pool size every run uses (and nimbled's -j): the two cores of
   the machine the bounds were fixed on. *)
let jobs = 2

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("uasbench: " ^ m);
      exit 2)
    fmt

(* ---- statistics ---- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log (float_of_int x)) 0.0 xs
      /. float_of_int (List.length xs))

(* ---- files and processes ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun a e -> a + dir_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

(* VmHWM of a process, in kB *)
let peak_rss_kb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" Option.some
      | _ -> None)
    (String.split_on_char '\n' status)
  |> Option.value ~default:0

(* user+sys CPU seconds of another process; /proc counts in USER_HZ
   ticks, which Linux fixes at 100 *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub stat after (String.length stat - after))
  in
  (* fields from the state letter on: utime and stime are stat
     fields 14 and 15 *)
  float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12)
  |> fun ticks -> ticks /. 100.0

(* ---- command line ---- *)

let workload_name = ref ""
let seed = ref (-1)
let seconds = ref 0.0
let trace = ref (-1)
let goldens = ref "ci/goldens"
let nimbled = "_build/default/bin/nimbled.exe"
let work = ".perfbench-work"

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload_name,
       "NAME table-cold | table-warm | plan-cold | serve-warm");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--goldens", Arg.Set_string goldens, "DIR expected outputs") ]
    (fun a -> die "unexpected argument %s" a)
    "uasbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (* what the caller's UAS_* environment would change is pinned here:
     no armed fault plan, the fast tier, and an explicit pool size and
     store everywhere below *)
  Fault.clear ();
  Fast_interp.set_default_tier Fast_interp.Fast;
  if not (Sys.file_exists work) then Unix.mkdir work 0o755

let traced = !trace = 1
let in_work f = Filename.concat work f

let golden name =
  let path = Filename.concat !goldens name in
  if Sys.file_exists path then Some (read_file path) else None

(* ---- correctness ---- *)

(* The lines where [got] differs from its golden [file], as
   (operation, detail).  A line of a benchmark section that starts with
   a version label belongs to the cell "<section>/<version>"; any other
   line to [whole]. *)
let golden_diff ~file ~whole ~want got =
  let w = Array.of_list (String.split_on_char '\n' want) in
  let g = Array.of_list (String.split_on_char '\n' got) in
  let line a i = if i < Array.length a then a.(i) else "" in
  let section = ref "" in
  List.filter_map
    (fun i ->
      let l = line g i in
      if l <> "" && l.[0] <> ' ' && not (String.contains l ':') then
        section := l;
      if String.equal l (line w i) then None
      else
        let op =
          match String.split_on_char ' ' (String.trim l) with
          | v :: _ when String.length l > 2 && String.sub l 0 2 = "  " ->
            !section ^ "/" ^ v
          | _ -> whole
        in
        Some (op, Printf.sprintf "differs from %s line %d" file (i + 1)))
    (List.init (max (Array.length w) (Array.length g)) Fun.id)

(* ---- seeded inputs ---- *)

(* The Table 6.2 suite on inputs drawn from the seed: Skipjack keys and
   words (the hw variant's key is its ROM), DES halves, the IIR signal.
   The DES key stays the one Registry.des_mem uses.  References come
   from the bench_suite host implementations. *)
let seeded_suite seed =
  let s k = (seed * 8) + k in
  let m = Registry.default_blocks in
  let vint = Array.map (fun x -> Types.VInt x) in
  let out (b : Registry.benchmark) = fst (List.hd b.Registry.b_reference) in
  let skipjack (b : Registry.benchmark) ~hw k =
    let key = Skipjack.random_key ~seed:(s k) in
    let words = Skipjack.random_words ~seed:(s (k + 1)) (4 * m) in
    { b with
      Registry.b_program =
        (if hw then Skipjack.skipjack_hw ~m ~key else b.Registry.b_program);
      b_workload =
        (if hw then Skipjack.workload_hw words
         else Skipjack.workload_mem ~key words);
      b_reference = [ (out b, vint (Skipjack.encrypt_stream ~key words)) ] }
  in
  let key64 = 0x0123456789ABCDEFL in
  let des (b : Registry.benchmark) ~hw k =
    let halves = Des.random_halves ~seed:(s k) (2 * m) in
    { b with
      Registry.b_workload =
        (if hw then Des.workload_hw halves else Des.workload_mem ~key64 halves);
      b_reference =
        [ (out b,
           vint (Des.encrypt_stream ~subkeys:(Des.key_schedule key64) halves))
        ] }
  in
  let iir (b : Registry.benchmark) =
    let channels = Registry.default_channels in
    let signal =
      Iir.random_signal ~seed:(s 7) (channels * Iir.points_per_channel)
    in
    { b with
      Registry.b_workload = Iir.workload signal;
      b_reference =
        [ (out b,
           Array.map
             (fun x -> Types.VFloat x)
             (Iir.filter_bank ~channels signal)) ] }
  in
  [ skipjack (Registry.skipjack_mem ()) ~hw:false 1;
    skipjack (Registry.skipjack_hw ()) ~hw:true 3;
    des (Registry.des_mem ()) ~hw:false 5;
    des (Registry.des_hw ()) ~hw:true 6;
    iir (Registry.iir ()) ]

(* ---- per-round results ---- *)

type round = {
  wall : float;
  cpu : float;
  requests : float list;
      (** latency of each user request (the table, a plan or a daemon
          request), seconds *)
  attempted : int;
  failures : string list;  (** labels of failed operations *)
  counters : (string * float) list;  (** per-round differences *)
  points : (int * int) list;  (** (cycles, area rows) per design point *)
}

(* Print every failure (operation, detail); the failed operations,
   each once. *)
let check_failures ~attempted failures =
  List.iter (fun (op, why) -> Printf.printf "FAILED %s: %s\n%!" op why) failures;
  List.filteri (fun i _ -> i < attempted)
    (List.sort_uniq compare (List.map fst failures))

(* program-exposed counters of the in-process store and GC *)
let local_counters () =
  let gc = Gc.quick_stat () in
  let store = Store.stats (Option.get (Store.installed ())) in
  [ ("store_hits", float_of_int store.Store.st_hits);
    ("store_misses", float_of_int (store.Store.st_misses + store.Store.st_bad));
    ("store_writes", float_of_int store.Store.st_writes);
    ("store_read_s", store.Store.st_read_s);
    ("store_write_s", store.Store.st_write_s);
    ("gc_alloc_words",
     gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words);
    ("gc_major", float_of_int gc.Gc.major_collections) ]

let diff_counters before after =
  List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after

(* A timed region: wall, CPU seconds of the compiling process, counter
   differences. *)
let timed ?(cpu = cpu_now) ?(counters = local_counters) f =
  let c0 = counters () in
  let t0 = now () and cpu0 = cpu () in
  let x = f () in
  let wall = now () -. t0 and cpu = cpu () -. cpu0 in
  (x, wall, cpu, diff_counters c0 (counters ()))

let fresh_store dir =
  rm_rf dir;
  match Store.open_dir ~max_bytes:(256 * 1024 * 1024) dir with
  | Ok s -> Store.install s
  | Error m -> die "store %s: %s" dir m

(* ---- traced pipeline pieces ---- *)

(* per-round counters of the traced pipelines (pool domains add to
   them concurrently) *)
let cu_hits = Atomic.make 0
let cu_misses = Atomic.make 0
let dfg_nodes = Atomic.make 0
let sched_fallbacks = Atomic.make 0
let rewrites = Atomic.make 0
let rejected = Atomic.make 0
let interp_runs = Atomic.make 0

let traced_counters () =
  List.map
    (fun (k, a) -> (k, float_of_int (Atomic.get a)))
    [ ("cu_hits", cu_hits); ("cu_misses", cu_misses); ("dfg_nodes", dfg_nodes);
      ("sched_fallbacks", sched_fallbacks); ("rewrites", rewrites);
      ("rejected", rejected); ("interp_runs", interp_runs) ]

let layer_of_pass = function
  | "loop-nest" -> "analysis"
  | "squash" -> "transform.squash"
  | "jam" -> "transform.jam"
  | "dfg-build" -> "dfg.build"
  | "schedule" -> "dfg.sched"
  | "exact-ii" -> "dfg.exact"
  | "estimate" -> "hw.estimate"
  | n when Option.is_some (Rewrite.find n) -> "transform.enabling"
  | n -> "pass." ^ n

(* The pass under a span named after its layer. *)
let traced_pass (p : Pass.t) =
  let layer = layer_of_pass p.Pass.name in
  let rewrite = Option.is_some (Rewrite.find p.Pass.name) in
  { p with
    Pass.run =
      (fun cu ->
        let r = Trace.with_span layer (fun () -> p.Pass.run cu) in
        if rewrite then
          Atomic.incr (match r with Ok _ -> rewrites | Error _ -> rejected);
        r) }

(* Run a pass list traced, and count what the unit exposes. *)
let traced_pipeline cu passes =
  let r = Pass.run cu (List.map traced_pass passes) in
  (match r with
  | Ok cu ->
    ignore (Atomic.fetch_and_add cu_hits (Cu.hits cu));
    ignore (Atomic.fetch_and_add cu_misses (Cu.misses cu));
    (match Cu.dfg cu with
    | Some d ->
      ignore
        (Atomic.fetch_and_add dfg_nodes
           (Uas_dfg.Graph.node_count d.Uas_dfg.Build.d_graph))
    | None -> ());
    List.iter
      (fun (d : Diag.t) ->
        if String.equal d.Diag.d_pass "schedule" then
          Atomic.incr sched_fallbacks)
      (Cu.incidents cu)
  | Error _ -> ());
  r

(* ---- workloads ---- *)

type workload = {
  setup : unit -> unit;  (** one set-up, timed *)
  reset : unit -> unit;  (** undo a set-up before the next, untimed *)
  round : unit -> round;
  traced_round : unit -> round;
  store_bytes : unit -> int;
  peak_rss_kb : unit -> int;
  finish : unit -> unit;
}

(* -- table-cold / table-warm -- *)

let table_golden () =
  match golden "table-6.2.txt" with
  | Some g -> g
  | None -> die "missing golden table-6.2.txt in %s" !goldens

let render_table rows =
  Format.asprintf "@.==== Table 6.2 ====@.%a@." Experiments.pp_table_6_2 rows

let cell_label (b : Registry.benchmark) v =
  b.Registry.b_name ^ "/" ^ Nimble.version_name v

(* Per-cell failures: skipped, degraded (any incident) or unverified. *)
let cell_failures rows =
  List.concat_map
    (fun (row : Experiments.bench_row) ->
      let b = row.Experiments.br_benchmark in
      List.concat_map
        (fun (c : Experiments.cell) ->
          let op = cell_label b c.Experiments.c_version in
          (if c.Experiments.c_verified then [] else [ (op, "not verified") ])
          @ List.map
              (fun d -> (op, "degraded: " ^ Diag.to_string d))
              c.Experiments.c_incidents)
        row.Experiments.br_cells
      @ List.map
          (fun (s : Experiments.skip) ->
            ( cell_label b s.Experiments.s_version,
              "skipped: " ^ Diag.to_string s.Experiments.s_diag ))
          row.Experiments.br_skipped)
    rows

let table_points rows =
  List.concat_map
    (fun (row : Experiments.bench_row) ->
      List.map
        (fun (c : Experiments.cell) ->
          ( c.Experiments.c_report.Estimate.r_total_cycles,
            c.Experiments.c_report.Estimate.r_area_rows ))
        row.Experiments.br_cells)
    rows

(* Regroup input-ordered per-cell results benchmark-major, as
   Experiments.table_6_2 does. *)
let assemble benches results =
  List.map
    (fun (b : Registry.benchmark) ->
      let mine =
        List.filter_map
          (fun ((b' : Registry.benchmark), r) ->
            if b' == b then Some r else None)
          results
      in
      { Experiments.br_benchmark = b;
        br_cells = List.filter_map Result.to_option mine;
        br_skipped =
          List.filter_map
            (function Ok _ -> None | Error s -> Some s)
            mine })
    benches

let table ~warm =
  let want = table_golden () in
  let store_dir = in_work "store-table" in
  let benches = ref [] in
  (* one pool task per cell: the flat fan-out of
     Experiments.table_6_2, over the seeded suite *)
  let run_cells ~render cell =
    let tasks =
      List.concat_map
        (fun b -> List.map (fun v -> (b, v)) Nimble.paper_versions)
        !benches
    in
    let results =
      List.map2
        (fun (b, v) -> function
          | Ok r -> (b, r)
          | Error tf ->
            ( b,
              Error
                { Experiments.s_version = v;
                  s_diag =
                    Diag.errorf ~pass:"task" "%s"
                      (Parallel.Task_failure.to_message tf) } ))
        tasks
        (Parallel.map_results ~jobs cell tasks)
    in
    let rows = assemble !benches results in
    (rows, render rows)
  in
  (* the library's own single-version benchmark run *)
  let cell (b, v) =
    let row =
      Experiments.run_benchmark ~jobs:1 ~verify:true ~tier:Fast_interp.Fast
        ~versions:[ v ] b
    in
    match (row.Experiments.br_cells, row.Experiments.br_skipped) with
    | [ c ], [] -> Ok c
    | [], [ s ] -> Error s
    | _ ->
      Error
        { Experiments.s_version = v;
          s_diag = Diag.errorf ~pass:"bench" "expected exactly one cell" }
  in
  (* the same cell through the public stage calls, a span around each *)
  let traced_cell ((b : Registry.benchmark), v) =
    Trace.with_span ~label:(cell_label b v) "core.cell" @@ fun () ->
    let cu =
      Cu.make b.Registry.b_program ~outer_index:b.Registry.b_outer_index
        ~inner_index:b.Registry.b_inner_index
    in
    match
      traced_pipeline cu
        (Nimble.transform_passes v @ Nimble.estimate_passes v)
    with
    | Error d -> Error { Experiments.s_version = v; s_diag = d }
    | Ok cu ->
      let compiled = Trace.with_span "ir.compile" (fun () -> Cu.compiled cu) in
      Atomic.incr interp_runs;
      let check =
        match
          Trace.with_span "ir.interp" (fun () ->
              Fast_interp.run compiled b.Registry.b_workload)
        with
        | result ->
          Trace.with_span "bench_suite.check" (fun () ->
              Registry.check_result b result)
        | exception Interp.Stuck m -> Error ("verification run stuck: " ^ m)
        | exception Interp.Out_of_fuel -> Error "verification run out of fuel"
      in
      Ok
        { Experiments.c_version = v;
          c_report = Option.get (Cu.report cu);
          c_verified = Result.is_ok check;
          c_gap = None;
          c_incidents =
            Cu.incidents cu
            @
            match check with
            | Ok () -> []
            | Error m -> [ Diag.errorf ~pass:"verify" "%s" m ] }
  in
  (* a user's request here is the whole table *)
  let round ~counters run =
    if not warm then fresh_store store_dir;
    let (rows, text), wall, cpu, counters = timed ~counters run in
    let attempted =
      List.fold_left
        (fun a (r : Experiments.bench_row) ->
          a + List.length r.Experiments.br_cells
          + List.length r.Experiments.br_skipped)
        0 rows
    in
    { wall; cpu; requests = [ wall ]; attempted;
      failures =
        check_failures ~attempted
          (cell_failures rows
          @ golden_diff ~file:"table-6.2.txt" ~whole:"Table 6.2" ~want text);
      counters;
      points = table_points rows }
  in
  { setup =
      (fun () ->
        benches := seeded_suite !seed;
        if warm then begin
          fresh_store store_dir;
          ignore (run_cells ~render:render_table cell)
        end);
    reset = (fun () -> ());
    round =
      (fun () ->
        round ~counters:local_counters (fun () ->
            run_cells ~render:render_table cell));
    traced_round =
      (fun () ->
        round ~counters:traced_counters (fun () ->
            Trace.round (fun () ->
                run_cells traced_cell ~render:(fun rows ->
                    Trace.with_span ~label:"table-6.2" "core.render" (fun () ->
                        render_table rows)))));
    store_bytes = (fun () -> dir_bytes store_dir);
    peak_rss_kb = (fun () -> peak_rss_kb "self");
    finish = (fun () -> ()) }

(* -- plan-cold -- *)

let plan_cold () =
  let store_dir = in_work "store-plan" in
  let benches = ref [] in
  let last = Hashtbl.create 8 in
  let depth (b : Registry.benchmark) =
    Option.value ~default:2
      (Uas_analysis.Loop_nest.depth_at b.Registry.b_program
         b.Registry.b_outer_index)
  in
  let top_point (p : Planner.plan) =
    List.find_map
      (fun (r : Planner.row) ->
        match r.Planner.r_outcome with
        | Ok rep -> Some (rep.Estimate.r_total_cycles, rep.Estimate.r_area_rows)
        | Error _ -> None)
      p.Planner.p_rows
  in
  (* a plan fails on a golden mismatch, a degraded row, or no
     estimated row at all *)
  let plan_failures (b : Registry.benchmark) (p : Planner.plan) =
    let op = "plan " ^ b.Registry.b_name in
    let file = "plan-" ^ String.lowercase_ascii b.Registry.b_name ^ ".txt" in
    (match golden file with
    | None -> []
    | Some want ->
      golden_diff ~file ~whole:op ~want (Format.asprintf "%a@." Planner.pp p)
      |> List.map (fun (_, why) -> (op, why)))
    @ List.concat_map
        (fun (r : Planner.row) ->
          List.map
            (fun d ->
              ( op,
                r.Planner.r_candidate.Planner.c_label ^ " degraded: "
                ^ Diag.to_string d ))
            r.Planner.r_incidents)
        p.Planner.p_rows
    @ if top_point p = None then [ (op, "no candidate estimated") ] else []
  in
  (* each benchmark through [f], timed: (benchmark, result, seconds) *)
  let each f =
    List.map
      (fun b ->
        let t0 = now () in
        let x = f b in
        (b, x, now () -. t0))
      !benches
  in
  let plan (b : Registry.benchmark) =
    Planner.plan ~jobs b.Registry.b_program
      ~outer_index:b.Registry.b_outer_index
      ~inner_index:b.Registry.b_inner_index ~benchmark:b.Registry.b_name
  in
  let report_string = function
    | Ok rep -> Estimate.report_to_string rep
    | Error d -> Diag.to_string d
  in
  (* the planner's search through its public pieces: the candidate
     list, then per candidate the analysis, the candidate's rewrites
     and the quick-synthesis stages *)
  let traced_plan (b : Registry.benchmark) =
    let cands = Planner.candidates ~depth:(depth b) () in
    let outcome (c : Planner.candidate) =
      Trace.with_span
        ~label:(b.Registry.b_name ^ "/" ^ c.Planner.c_label)
        "core.cell"
      @@ fun () ->
      let cu =
        Cu.make b.Registry.b_program ~outer_index:b.Registry.b_outer_index
          ~inner_index:b.Registry.b_inner_index
      in
      let rewrites =
        List.map
          (fun name ->
            if String.equal name "squash" then
              Rewrite.pass ~factor:c.Planner.c_ds "squash"
            else Rewrite.pass name)
          c.Planner.c_sequence
      in
      let pipelined = c.Planner.c_pipelined in
      match
        traced_pipeline cu
          ((Stages.analyze :: rewrites)
          @ [ Stages.dfg_build ();
              Stages.schedule ~pipelined ();
              Stages.estimate ~pipelined ~name:c.Planner.c_label () ])
      with
      | Ok cu -> Ok (Option.get (Cu.report cu))
      | Error d -> Error d
    in
    let results = Parallel.map_results ~jobs outcome cands in
    (* the same candidates must score as in the untraced plan *)
    let expected =
      match Hashtbl.find_opt last b.Registry.b_name with
      | Some (p : Planner.plan) ->
        List.map
          (fun (r : Planner.row) ->
            (r.Planner.r_candidate.Planner.c_label,
             report_string r.Planner.r_outcome))
          p.Planner.p_rows
      | None -> []
    in
    List.concat
      (List.map2
         (fun (c : Planner.candidate) r ->
           let label = c.Planner.c_label in
           match r with
           | Ok outcome
             when List.assoc_opt label expected = Some (report_string outcome)
             ->
             []
           | Ok _ ->
             [ ("plan " ^ b.Registry.b_name, label ^ " scores differently traced") ]
           | Error tf ->
             [ ("plan " ^ b.Registry.b_name,
                label ^ ": " ^ Parallel.Task_failure.to_message tf) ])
         cands results)
  in
  { setup =
      (fun () ->
        benches := seeded_suite !seed @ Registry.extras ());
    reset = (fun () -> ());
    round =
      (fun () ->
        fresh_store store_dir;
        let plans, wall, cpu, counters = timed (fun () -> each plan) in
        List.iter
          (fun ((b : Registry.benchmark), p, _) ->
            Hashtbl.replace last b.Registry.b_name p)
          plans;
        let attempted = List.length plans in
        { wall; cpu;
          requests = List.map (fun (_, _, dt) -> dt) plans;
          attempted;
          failures =
            check_failures ~attempted
              (List.concat_map (fun (b, p, _) -> plan_failures b p) plans);
          counters;
          points = List.filter_map (fun (_, p, _) -> top_point p) plans });
    traced_round =
      (fun () ->
        fresh_store store_dir;
        let plans, wall, cpu, counters =
          timed ~counters:traced_counters (fun () ->
              Trace.round (fun () -> each traced_plan))
        in
        let attempted = List.length plans in
        { wall; cpu;
          requests = List.map (fun (_, _, dt) -> dt) plans;
          attempted;
          failures =
            check_failures ~attempted
              (List.concat_map (fun (_, f, _) -> f) plans);
          counters;
          points = [] });
    store_bytes = (fun () -> dir_bytes store_dir);
    peak_rss_kb = (fun () -> peak_rss_kb "self");
    finish = (fun () -> ()) }

(* -- serve-warm -- *)

type request = { r_label : string; r_work : Handler.work; r_want : string }

(* The requests whose replies have goldens.  The wavelet3 estimate
   golden was recorded with the exact-II report on, so that request
   asks for it. *)
let service_requests () =
  let want name =
    match golden name with
    | Some g -> g
    | None -> die "missing golden %s in %s" name !goldens
  in
  let estimate bench file exact =
    { r_label = "ESTIMATE " ^ bench;
      r_work =
        Handler.W_estimate
          { Handler.e_bench = bench; e_verify = true; e_tier = None;
            e_validate = false; e_exact = exact; e_budget_s = None };
      r_want = want file }
  in
  let plan bench file =
    { r_label = "PLAN " ^ bench;
      r_work =
        Handler.W_plan
          { Handler.p_bench = bench; p_objective = Planner.Ratio;
            p_validate = false; p_exact = Uas_dfg.Sched.Exact_off;
            p_budget_s = None };
      r_want = want file }
  in
  [ estimate "skipjack-hw" "estimate-skipjack-hw.txt" Uas_dfg.Sched.Exact_off;
    estimate "des-hw" "estimate-des-hw.txt" Uas_dfg.Sched.Exact_off;
    estimate "iir" "estimate-iir.txt" Uas_dfg.Sched.Exact_off;
    estimate "wavelet3" "wavelet3-estimate.txt" Uas_dfg.Sched.Exact_report;
    plan "skipjack-mem" "plan-skipjack-mem.txt";
    plan "wavelet3" "plan-wavelet3.txt" ]

(* each request this many times per pass of the script *)
let script_repeats = 4

(* the top-ranked row of a rendered plan: (cycles, area rows) *)
let plan_reply_point body =
  match String.split_on_char '\n' body with
  | _ :: _ :: first :: _ -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' first) with
    | _rank :: _plan :: _ds :: _ii :: _sched :: area :: cycles :: _ -> (
      match (int_of_string_opt cycles, int_of_string_opt area) with
      | Some c, Some a -> Some (c, a)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* a number after [key] in a STATS JSON body, searched from [from] *)
let json_field ~from key body =
  let find sub start =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length body then None
      else if String.sub body i n = sub then Some (i + n)
      else go (i + 1)
    in
    go start
  in
  match find from 0 with
  | None -> 0.0
  | Some i -> (
    match find ("\"" ^ key ^ "\":") i with
    | None -> 0.0
    | Some j -> Scanf.sscanf (String.sub body j (String.length body - j))
                  "%f" Fun.id)

let serve_warm () =
  let reqs = service_requests () in
  let sock = in_work "nimbled.sock" in
  let store_dir = in_work "store-daemon" in
  let log = in_work "nimbled.log" in
  let pid = ref None in
  let conns = [| None; None |] in
  let rng = Random.State.make [| !seed |] in
  let connect k =
    match conns.(k) with
    | Some c -> c
    | None -> (
      match Client.connect sock with
      | Ok c ->
        conns.(k) <- Some c;
        c
      | Error m -> die "connect %s: %s" sock m)
  in
  let drop k =
    Option.iter Client.close conns.(k);
    conns.(k) <- None
  in
  let request k frame =
    match Client.request (connect k) frame with
    | Ok f -> Ok f
    | Error m ->
      drop k;
      Error m
  in
  let stop () =
    match !pid with
    | None -> ()
    | Some p ->
      ignore (request 0 (Handler.to_frame Handler.Drain));
      drop 0;
      drop 1;
      let deadline = now () +. 30.0 in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] p with
        | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          wait ()
        | 0, _ ->
          Unix.kill p Sys.sigkill;
          ignore (Unix.waitpid [] p)
        | _ -> ()
      in
      wait ();
      pid := None
  in
  at_exit (fun () ->
      match !pid with
      | Some p ->
        (try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] p)
      | None -> ());
  let stats () =
    match request 0 (Handler.to_frame Handler.Stats) with
    | Ok { Protocol.tag = Protocol.Reply_ok; body } -> body
    | Ok _ | Error _ -> die "STATS failed"
  in
  let daemon_counters () =
    let s = stats () in
    let d = json_field ~from:"\"daemon\"" and st = json_field ~from:"\"store\"" in
    [ ("store_hits", st "hits" s);
      ("store_misses", st "misses" s +. st "bad" s);
      ("store_writes", st "writes" s);
      ("store_read_s", st "read_s" s);
      ("store_write_s", st "write_s" s);
      ("requests", d "requests" s);
      ("request_s", d "request_s" s);
      ("shed", d "shed" s);
      ("protocol_errors", d "protocol_errors" s) ]
  in
  let cpu () = match !pid with Some p -> proc_cpu_s p | None -> 0.0 in
  (* one pass of the script: a seeded shuffle of every request
     [script_repeats] times, dealt alternately to the two connections,
     each a closed loop *)
  let pass ~trace_spans =
    let script =
      List.concat (List.init script_repeats (fun _ -> reqs))
      |> List.map (fun r -> (Random.State.bits rng, r))
      |> List.sort compare |> List.map snd
    in
    let share k = List.filteri (fun i _ -> i mod 2 = k) script in
    let results = [| []; [] |] in
    let client k () =
      results.(k) <-
        List.mapi
          (fun i r ->
            let t0 = now () in
            let reply = request k (Handler.to_frame (Handler.Work r.r_work)) in
            let t1 = now () in
            if trace_spans then
              Trace.record ~track:k ~label:r.r_label "service.request" t0 t1;
            let failure, point =
              match reply with
              | Ok { Protocol.tag = Protocol.Reply_ok; body } ->
                ( (if String.equal body r.r_want then None
                   else Some "reply differs from its golden"),
                  match r.r_work with
                  | Handler.W_plan _ -> plan_reply_point body
                  | _ -> None )
              | Ok { Protocol.tag; body } ->
                (Some (Protocol.tag_name tag ^ " " ^ body), None)
              | Error m -> (Some m, None)
            in
            ( Printf.sprintf "%s (connection %d, #%d)" r.r_label k i,
              t1 -. t0, failure, point ))
          (share k)
    in
    let run () =
      let threads = List.init 2 (fun k -> Thread.create (client k) ()) in
      List.iter Thread.join threads;
      results.(0) @ results.(1)
    in
    if trace_spans then Trace.round run else run ()
  in
  let measured ~trace_spans () =
    let all, wall, cpu, counters =
      timed ~cpu ~counters:daemon_counters (fun () -> pass ~trace_spans)
    in
    let attempted = List.length all in
    { wall; cpu;
      requests = List.map (fun (_, dt, _, _) -> dt) all;
      attempted;
      failures =
        check_failures ~attempted
          (List.filter_map
             (fun (op, _, failure, _) -> Option.map (fun why -> (op, why)) failure)
             all);
      counters;
      points = List.filter_map (fun (_, _, _, p) -> p) all }
  in
  { setup =
      (fun () ->
        rm_rf store_dir;
        (try Sys.remove sock with Sys_error _ -> ());
        let env =
          Array.of_list
            (List.filter
               (fun kv -> not (String.starts_with ~prefix:"UAS_" kv))
               (Array.to_list (Unix.environment ())))
        in
        let fd = Unix.openfile log [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        let p =
          Unix.create_process_env nimbled
            [| nimbled; "--socket"; sock; "--cache"; store_dir; "-j";
               string_of_int jobs |]
            env fd fd fd
        in
        Unix.close fd;
        pid := Some p;
        let deadline = now () +. 60.0 in
        let rec hello () =
          match Client.connect sock with
          | Ok c -> conns.(0) <- Some c
          | Error _ when now () < deadline ->
            (match Unix.waitpid [ Unix.WNOHANG ] p with
            | 0, _ -> ()
            | _ ->
              pid := None;
              die "nimbled exited at start-up; see %s" log);
            Unix.sleepf 0.005;
            hello ()
          | Error m -> die "nimbled did not start: %s" m
        in
        hello ();
        (match request 0 (Handler.to_frame (Handler.Hello "uasbench")) with
        | Ok { Protocol.tag = Protocol.Reply_ok; _ } -> ()
        | Ok _ | Error _ -> die "nimbled HELLO failed");
        (* fill the store: every request once *)
        List.iter
          (fun r -> ignore (request 0 (Handler.to_frame (Handler.Work r.r_work))))
          reqs;
        ignore (connect 1));
    reset = stop;
    round = measured ~trace_spans:false;
    traced_round = measured ~trace_spans:true;
    store_bytes = (fun () -> dir_bytes store_dir);
    peak_rss_kb =
      (fun () ->
        match !pid with Some p -> peak_rss_kb (string_of_int p) | None -> 0);
    finish = stop }

(* ---- main ---- *)

let workload =
  match !workload_name with
  | "table-cold" -> table ~warm:false
  | "table-warm" -> table ~warm:true
  | "plan-cold" -> plan_cold ()
  | "serve-warm" -> serve_warm ()
  | w -> die "unknown workload %S (table-cold, table-warm, plan-cold, serve-warm)" w

(* A cheap set-up (building the seeded inputs) is repeated before
   every round, so its median spans the whole run like the rounds'; an
   expensive one (filling a store, starting the daemon) three times
   up front. *)
let setup_each_round =
  match !workload_name with "table-cold" | "plan-cold" -> true | _ -> false

let setup_times n =
  List.init n (fun i ->
      if i > 0 then workload.reset ();
      let t0 = if i = 0 then t_start else now () in
      workload.setup ();
      now () -. t0)

(* Rounds until [budget] seconds have passed, at least [min_rounds]. *)
let rounds ~budget ~min_rounds f =
  let t0 = now () in
  let rec go acc =
    if List.length acc >= min_rounds && now () -. t0 >= budget then List.rev acc
    else go (f () :: acc)
  in
  go []

let metric_line name value unit =
  Printf.printf "%-28s %14.6f %s\n%!" name value unit

let counter rs key =
  mean (List.map (fun r -> Option.value ~default:0.0 (List.assoc_opt key r.counters)) rs)

let emit ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> metric_line n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %.9g, \"unit\": %S}" n v u)
          metrics))

let tally rs =
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 rs in
  let failed = List.fold_left (fun a r -> a + List.length r.failures) 0 rs in
  (attempted, failed)

let end_to_end () =
  let setup = ref (setup_times (if setup_each_round then 1 else 3)) in
  (* peak memory after a fixed amount of work (set-up and 3 rounds), so
     it does not grow with the number of rounds a faster machine fits in *)
  let peak_rss_kb = ref 0 and rounds_done = ref 0 in
  let round () =
    if setup_each_round then begin
      let t0 = now () in
      workload.setup ();
      setup := (now () -. t0) :: !setup
    end;
    let r = workload.round () in
    incr rounds_done;
    if !rounds_done = 3 then peak_rss_kb := workload.peak_rss_kb ();
    r
  in
  let rs = rounds ~budget:!seconds ~min_rounds:3 round in
  let setup = List.rev !setup in
  let requests = List.concat_map (fun r -> r.requests) rs in
  let points = (List.hd (List.rev rs)).points in
  (* a plan or script round is a fixed mix of request kinds, so the
     median of all samples could sit on the edge between two kinds; the
     per-round medians' median does not.  The 90th percentile lies
     inside the slowest kind, so it pools every sample. *)
  let p50 = median (List.map (fun r -> median r.requests) rs) in
  let metrics =
    [ ("setup_s", median setup, "s");
      ("round_s", median (List.map (fun r -> r.wall) rs), "s");
      ("cpu_s", median (List.map (fun r -> r.cpu) rs), "s");
      ("request_p50_ms", 1000.0 *. p50, "ms");
      ("request_p90_ms", 1000.0 *. quantile 0.9 requests, "ms");
      ("peak_rss_mb", float_of_int !peak_rss_kb /. 1024.0, "MB");
      ("store_mb", float_of_int (workload.store_bytes ()) /. 1048576.0, "MB");
      ("kernel_cycles_geomean", geomean (List.map fst points), "cycles");
      ("area_rows_geomean", geomean (List.map snd points), "rows") ]
  in
  workload.finish ();
  let attempted, failed = tally rs in
  Printf.printf "round walls (s): %s\nset-ups (s): %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) rs))
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup));
  Printf.printf "rounds %d, requests timed %d, set-ups %d, failed_ratio %g\n"
    (List.length rs) (List.length requests) (List.length setup)
    (float_of_int failed /. float_of_int (max 1 attempted));
  emit ~correct:(failed = 0) ~attempted ~failed metrics

let per_layer () =
  ignore (setup_times 1);
  (* untraced rounds first: the overhead baseline and the
     program-exposed counters, then the traced rounds *)
  let half = !seconds /. 2.0 in
  let plain = rounds ~budget:half ~min_rounds:2 workload.round in
  let tr = rounds ~budget:half ~min_rounds:2 workload.traced_round in
  workload.finish ();
  let n = float_of_int (List.length tr) in
  let s = Trace.summarize ~tracks:jobs in
  let self name =
    1000.0 *. Option.value ~default:0.0 (List.assoc_opt name s.Trace.self_by_name) /. n
  in
  let self_prefix prefix =
    List.fold_left
      (fun a (k, v) -> if String.starts_with ~prefix k then a +. v else a)
      0.0 s.Trace.self_by_name
    *. 1000.0 /. n
  in
  let per_round key = counter tr key in
  let hits = counter plain "store_hits" and misses = counter plain "store_misses" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let sched_max = Trace.slowest ~k:1 "dfg.sched" in
  let service = !workload_name = "serve-warm" in
  let rtt =
    if service then 1000.0 *. mean (List.concat_map (fun r -> r.requests) tr)
    else 0.0
  in
  (* from the same (traced) rounds as [rtt] *)
  let server =
    1000.0 *. ratio (counter tr "request_s") (counter tr "requests")
  in
  let metrics =
    [ ("analysis.ms", self "analysis", "ms");
      ("transform.squash_ms", self "transform.squash", "ms");
      ("transform.jam_ms", self "transform.jam", "ms");
      ("transform.enabling_ms", self "transform.enabling", "ms");
      ("transform.rewrites", per_round "rewrites", "count");
      ("transform.rejected", per_round "rejected", "count");
      ("dfg.build_ms", self "dfg.build", "ms");
      ("dfg.nodes", per_round "dfg_nodes", "count");
      ("dfg.sched_ms", self "dfg.sched", "ms");
      ("dfg.sched_max_ms",
       (match sched_max with [ (_, d) ] -> 1000.0 *. d | _ -> 0.0), "ms");
      ("dfg.sched_fallbacks", per_round "sched_fallbacks", "count");
      ("hw.estimate_ms", self "hw.estimate", "ms");
      ("ir.compile_ms", self "ir.compile", "ms");
      ("ir.interp_ms", self "ir.interp", "ms");
      ("ir.interp_runs", per_round "interp_runs", "count");
      ("bench_suite.check_ms", self "bench_suite.check", "ms");
      ("core.other_ms", self_prefix "core.", "ms");
      ("pass.cu_hit_rate",
       ratio (per_round "cu_hits") (per_round "cu_hits" +. per_round "cu_misses"),
       "ratio");
      ("runtime.store_read_ms", 1000.0 *. counter plain "store_read_s", "ms");
      ("runtime.store_write_ms", 1000.0 *. counter plain "store_write_s", "ms");
      ("runtime.store_writes", counter plain "store_writes", "count");
      ("runtime.store_hits", hits, "count");
      ("runtime.store_misses", misses, "count");
      ("runtime.store_hit_rate", ratio hits (hits +. misses), "ratio");
      ("runtime.pool_busy_ratio",
       ratio s.Trace.self_total (float_of_int jobs *. s.Trace.wall), "ratio");
      ("runtime.gc_alloc_mb",
       8.0 *. counter plain "gc_alloc_words" /. 1048576.0, "MB");
      ("runtime.gc_major", counter plain "gc_major", "count");
      ("service.rtt_ms", rtt, "ms");
      ("service.server_ms", server, "ms");
      ("service.queue_wait_ms", rtt -. server, "ms");
      ("service.shed", counter plain "shed", "count");
      ("service.protocol_errors", counter plain "protocol_errors", "count");
      ("trace.overhead_ratio",
       ratio (median (List.map (fun r -> r.wall) tr))
         (median (List.map (fun r -> r.wall) plain)),
       "ratio");
      ("trace.accounted_ratio", s.Trace.accounted, "ratio") ]
  in
  let trace_file =
    in_work (Printf.sprintf "trace-%s-%d.json" !workload_name !seed)
  in
  Trace.write_chrome ~file:trace_file ~tracks:jobs ~track_name:(fun k ->
      if service then Printf.sprintf "client connection %d" k
      else Printf.sprintf "pool domain %d" k);
  Printf.printf "trace: %s (%d traced rounds, %.3f s traced wall)\n" trace_file
    (List.length tr) s.Trace.wall;
  let accounted_ok = Float.abs (s.Trace.accounted -. 1.0) <= 0.02 in
  Printf.printf
    "accounting: self %.3f s + idle %.3f s = %.4f x (%d tracks x wall); \
     tolerance 0.02 %s\n"
    s.Trace.self_total s.Trace.idle s.Trace.accounted jobs
    (if accounted_ok then "ok" else "EXCEEDED");
  List.iter
    (fun span ->
      match Trace.slowest span with
      | [] -> ()
      | top ->
        Printf.printf "slowest_cells %s: %s\n" span
          (String.concat "; "
             (List.map
                (fun (l, d) -> Printf.sprintf "%s %.1f ms" l (1000.0 *. d))
                top)))
    [ "dfg.sched"; "core.cell"; "service.request" ];
  List.iter
    (fun (k, v) -> Printf.printf "self %-22s %10.1f ms/round\n" k (1000.0 *. v /. n))
    s.Trace.self_by_name;
  let attempted, failed = tally (plain @ tr) in
  emit ~correct:(failed = 0 && accounted_ok) ~attempted ~failed metrics

let () = if traced then per_layer () else end_to_end ()
