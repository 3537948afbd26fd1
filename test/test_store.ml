(* The persistent artifact store: entry round-trips, corruption
   classified as Bad (never a wrong payload), size-bounded eviction,
   the artifact serializers, and the end-to-end contract — a warm
   cache run is byte-identical to the cold one with the artifacts
   served from the store, and verify mode flags a poisoned entry as an
   incident instead of believing it. *)

open Uas_ir
module B = Builder
module D = Uas_dfg
module Sd = D.Sched
module Store = Uas_runtime.Store
module Instrument = Uas_runtime.Instrument
module E = Uas_core.Experiments
module N = Uas_core.Nimble
module R = Uas_bench_suite.Registry

(* --- fixtures --- *)

let dir_counter = ref 0

(* a fresh store rooted in the system temp dir; open_dir creates it *)
let open_fresh ?max_bytes () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "uas-store-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  match Store.open_dir ?max_bytes dir with
  | Ok s -> s
  | Error m -> Alcotest.failf "open_dir %s: %s" dir m

let object_files s =
  let rec walk dir acc =
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then walk path acc else path :: acc)
      acc (Sys.readdir dir)
  in
  walk (Filename.concat (Store.dir s) "objects") []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let counter name =
  match List.assoc_opt name (Instrument.counters ()) with
  | Some n -> n
  | None -> 0

(* --- the store proper --- *)

let test_write_read_roundtrip () =
  let s = open_fresh () in
  let key = Store.key [ "kind=demo"; "some provenance"; "program text" ] in
  (* payloads are raw bytes: newlines and NULs must survive *)
  let payload = "line one\nline two\x00binary tail\n" in
  (match Store.write s ~kind:"demo" ~key payload with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  (match Store.read s ~kind:"demo" ~key with
  | Store.Hit p -> Alcotest.(check string) "payload survives" payload p
  | Store.Miss -> Alcotest.fail "expected a hit, got a miss"
  | Store.Bad m -> Alcotest.failf "expected a hit, got bad: %s" m);
  let st = Store.stats s in
  Alcotest.(check int) "one write" 1 st.Store.st_writes;
  Alcotest.(check int) "one hit" 1 st.Store.st_hits;
  Alcotest.(check (float 1e-9)) "hit rate 1" 1.0 (Store.hit_rate st)

let test_unknown_key_is_miss () =
  let s = open_fresh () in
  (match Store.read s ~kind:"demo" ~key:(Store.key [ "never written" ]) with
  | Store.Miss -> ()
  | Store.Hit _ | Store.Bad _ -> Alcotest.fail "expected a miss");
  Alcotest.(check int) "one miss" 1 (Store.stats s).Store.st_misses

let test_key_separates_parts () =
  (* the NUL joiner keeps part boundaries out of collision range *)
  Alcotest.(check bool)
    "[ab] <> [a;b]" false
    (String.equal (Store.key [ "ab" ]) (Store.key [ "a"; "b" ]));
  Alcotest.(check string)
    "deterministic"
    (Store.key [ "a"; "b" ])
    (Store.key [ "a"; "b" ])

let test_flipped_bit_is_bad () =
  let s = open_fresh () in
  let key = Store.key [ "corruptible" ] in
  (match Store.write s ~kind:"demo" ~key "precious artifact bytes" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  (match object_files s with
  | [ path ] ->
    let contents = read_file path in
    let b = Bytes.of_string contents in
    let i = Bytes.length b - 3 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    write_file path (Bytes.to_string b)
  | files -> Alcotest.failf "expected 1 object file, got %d" (List.length files));
  (match Store.read s ~kind:"demo" ~key with
  | Store.Bad m ->
    Alcotest.(check bool) "names the checksum" true
      (Helpers.contains ~sub:"checksum" m)
  | Store.Hit _ -> Alcotest.fail "corrupted entry served as a hit"
  | Store.Miss -> Alcotest.fail "corrupted entry classified as a miss");
  Alcotest.(check int) "one bad" 1 (Store.stats s).Store.st_bad

let test_truncated_entry_is_bad () =
  let s = open_fresh () in
  let key = Store.key [ "torn" ] in
  (match Store.write s ~kind:"demo" ~key "a payload that will be cut" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  (match object_files s with
  | [ path ] ->
    let contents = read_file path in
    write_file path (String.sub contents 0 (String.length contents - 5))
  | files -> Alcotest.failf "expected 1 object file, got %d" (List.length files));
  match Store.read s ~kind:"demo" ~key with
  | Store.Bad _ -> ()
  | Store.Hit _ -> Alcotest.fail "torn entry served as a hit"
  | Store.Miss -> Alcotest.fail "torn entry classified as a miss"

let test_entry_under_wrong_key_is_bad () =
  (* a file that lands under the wrong name (hardware bit rot in a
     directory block, a mangled restore) carries its own key and is
     rejected *)
  let s = open_fresh () in
  let key_a = Store.key [ "entry a" ] in
  let key_b = Store.key [ "entry b" ] in
  (match Store.write s ~kind:"demo" ~key:key_a "payload a" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  (match object_files s with
  | [ path_a ] ->
    let prefix = String.sub key_b 0 2 in
    let dir_b =
      Filename.concat
        (Filename.concat (Filename.concat (Store.dir s) "objects") "demo")
        prefix
    in
    (try Unix.mkdir dir_b 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    write_file (Filename.concat dir_b key_b) (read_file path_a)
  | files -> Alcotest.failf "expected 1 object file, got %d" (List.length files));
  match Store.read s ~kind:"demo" ~key:key_b with
  | Store.Bad m ->
    Alcotest.(check bool) "names the key mismatch" true
      (Helpers.contains ~sub:"key mismatch" m)
  | Store.Hit _ -> Alcotest.fail "misplaced entry served as a hit"
  | Store.Miss -> Alcotest.fail "misplaced entry classified as a miss"

let test_eviction_bounds_size () =
  let max_bytes = 4096 in
  let s = open_fresh ~max_bytes () in
  let payload = String.make 200 'x' in
  for i = 1 to 40 do
    match
      Store.write s ~kind:"demo"
        ~key:(Store.key [ string_of_int i ])
        payload
    with
    | Ok () -> ()
    | Error m -> Alcotest.failf "write %d: %s" i m
  done;
  let st = Store.stats s in
  Alcotest.(check bool)
    "sweep ran" true (st.Store.st_evicted > 0);
  let on_disk =
    List.fold_left
      (fun acc path -> acc + (Unix.stat path).Unix.st_size)
      0 (object_files s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "on-disk size %d bounded by the budget %d" on_disk
       max_bytes)
    true (on_disk <= max_bytes)

(* --- artifact serializers --- *)

let fg_body =
  [ B.("b" <-- band (v "a" + int 3) (int 255));
    B.("a" <-- bxor (v "b" + v "b") (int 21)) ]

let mem_body =
  [ B.("t" <-- load "src" (v "j"));
    B.("acc" <-- v "acc" + load "tab" (band (v "t") (int 255)));
    B.store "dst" (B.v "j") (B.v "acc") ]

let graph_of body = fst (D.Build.build ~inner_index:"j" body)

let test_schedule_serialization_roundtrip () =
  List.iter
    (fun (name, body) ->
      let g = graph_of body in
      let s = fst (Sd.optimal_schedule g) in
      match Sd.schedule_of_string (Sd.schedule_to_string s) with
      | Some s' ->
        if s' <> s then Alcotest.failf "%s: schedule round-trip differs" name
      | None -> Alcotest.failf "%s: schedule failed to parse back" name)
    [ ("fg", fg_body); ("mem", mem_body) ];
  Alcotest.(check (option reject)) "junk rejected" None
    (Option.map ignore (Sd.schedule_of_string "sched 1 nonsense"))

let test_exact_serialization_roundtrip () =
  List.iter
    (fun (name, body) ->
      let g = graph_of body in
      List.iter
        (fun effort ->
          let _, c = Sd.optimal_schedule ?effort g in
          match Sd.certificate_of_string (Sd.certificate_to_string c) with
          | Some c' ->
            if c' <> c then
              Alcotest.failf "%s: certificate round-trip differs" name
          | None -> Alcotest.failf "%s: certificate failed to parse back" name)
        (* certified, and bracketed by an exhausted budget *)
        [ None; Some 1 ])
    [ ("fg", fg_body); ("mem", mem_body) ];
  Alcotest.(check (option reject)) "junk rejected" None
    (Option.map ignore (Sd.certificate_of_string "cert 2 what"))

let iir () =
  match R.find "iir" with
  | Some b -> b
  | None -> Alcotest.fail "IIR benchmark missing"

let test_report_serialization_roundtrip () =
  let b = iir () in
  List.iter
    (fun version ->
      let built =
        match
          N.build_version_result b.R.b_program ~outer_index:b.R.b_outer_index
            ~inner_index:b.R.b_inner_index version
        with
        | Ok built -> built
        | Error d -> Alcotest.failf "build: %s" (Uas_pass.Diag.to_string d)
      in
      let r = N.estimate built in
      match Uas_hw.Estimate.report_of_string (Uas_hw.Estimate.report_to_string r) with
      | Some r' ->
        if r' <> r then Alcotest.fail "report round-trip differs"
      | None -> Alcotest.fail "report failed to parse back")
    [ N.Original; N.Pipelined; N.Squashed 2 ]

(* names pass through verbatim, even with spaces and '=' in them *)
let test_report_name_verbatim () =
  let b = iir () in
  let built =
    match
      N.build_version_result b.R.b_program ~outer_index:b.R.b_outer_index
        ~inner_index:b.R.b_inner_index N.Original
    with
    | Ok built -> built
    | Error d -> Alcotest.failf "build: %s" (Uas_pass.Diag.to_string d)
  in
  let r = N.estimate built in
  let r = { r with Uas_hw.Estimate.r_name = "odd name= with spaces" } in
  match Uas_hw.Estimate.report_of_string (Uas_hw.Estimate.report_to_string r) with
  | Some r' ->
    Alcotest.(check string) "name survives" r.Uas_hw.Estimate.r_name
      r'.Uas_hw.Estimate.r_name
  | None -> Alcotest.fail "report failed to parse back"

(* --- end to end: cold vs warm --- *)

let render row = Fmt.str "%a%a" E.pp_table_6_2 [ row ] E.pp_table_6_3 [ row ]

let versions = [ N.Original; N.Pipelined; N.Squashed 2; N.Jammed 2 ]

let with_store ?max_bytes f =
  let s = open_fresh ?max_bytes () in
  Store.install s;
  Instrument.set_enabled true;
  Instrument.reset ();
  Fun.protect
    ~finally:(fun () ->
      Store.uninstall ();
      Store.set_verify false;
      Instrument.reset ();
      Instrument.set_enabled false)
    (fun () -> f s)

let test_warm_run_identical_and_served () =
  with_store (fun s ->
      let cold = render (E.run_benchmark ~versions ~jobs:1 (iir ())) in
      Alcotest.(check bool) "cold run populated the store" true
        ((Store.stats s).Store.st_writes > 0);
      Instrument.reset ();
      let warm = render (E.run_benchmark ~versions ~jobs:1 (iir ())) in
      Alcotest.(check string) "warm byte-identical to cold" cold warm;
      let hits = counter "cu.store-hit" and misses = counter "cu.store-miss" in
      Alcotest.(check bool)
        (Printf.sprintf "warm artifacts served from the store (%d/%d)" hits
           (hits + misses))
        true
        (hits > 0 && misses = 0))

(* Exact_report renders the certificates stored with the schedules:
   a warm run must replay them from the store. *)
let test_warm_exact_report_identical () =
  with_store (fun _s ->
      let run () =
        render
          (E.run_benchmark ~versions ~exact:Sd.Exact_report ~jobs:1 (iir ()))
      in
      let cold = run () in
      Instrument.reset ();
      let warm = run () in
      Alcotest.(check string) "warm byte-identical to cold" cold warm;
      Alcotest.(check bool) "no warm misses" true
        (counter "cu.store-hit" > 0 && counter "cu.store-miss" = 0))

(* A store left by a build with the retired native tier holds [cmxs]
   entries.  Nothing reads that kind any more: a cold and then a warm
   Table 6.2 against such a store reproduce the golden byte-for-byte,
   and no entry is classified bad.  (The golden is a declared test dep;
   skipped when run outside the dune sandbox.) *)
let test_retired_kind_entry_ignored () =
  match
    List.find_opt Sys.file_exists
      [ "../ci/goldens/table-6.2.txt"; "ci/goldens/table-6.2.txt" ]
  with
  | None -> Alcotest.skip ()
  | Some path ->
    let golden = In_channel.with_open_bin path In_channel.input_all in
    with_store (fun s ->
        (match
           Store.write s ~kind:"cmxs" ~key:(Store.key [ "stale" ]) "\x7fELF"
         with
        | Ok () -> ()
        | Error m -> Alcotest.failf "write: %s" m);
        let table () =
          Fmt.str "@.==== Table 6.2 ====@.%a@." E.pp_table_6_2
            (E.table_6_2 ~verify:true ~jobs:2 ())
        in
        Alcotest.(check string) "cold table-6.2 = golden" golden (table ());
        Alcotest.(check string) "warm table-6.2 = golden" golden (table ());
        Alcotest.(check int) "no bad entries" 0 (Store.stats s).Store.st_bad)

(* Entries a cost-model-1 build wrote (schedules from the iterative
   heuristic and the reports derived from them) must never serve a
   cost-model-2 run.  Poison both kinds under the exact contexts the
   cost-model-1 stages keyed them by: the run must miss them and
   recompute, and only its own entries serve the next run. *)
let test_old_cost_model_is_miss () =
  let b = iir () in
  let run () =
    match
      N.run_version_cu b.R.b_program ~outer_index:b.R.b_outer_index
        ~inner_index:b.R.b_inner_index N.Pipelined
    with
    | Ok (_, _, r) -> r
    | Error d -> Alcotest.failf "pipelined: %s" (Uas_pass.Diag.to_string d)
  in
  (* computed before any store is installed *)
  let poisoned = { (run ()) with Uas_hw.Estimate.r_ii = 999 } in
  with_store (fun s ->
      let cu =
        Uas_pass.Cu.make b.R.b_program ~outer_index:b.R.b_outer_index
          ~inner_index:b.R.b_inner_index
      in
      let v1 =
        [ "target=" ^ Uas_hw.Datapath.fingerprint Uas_hw.Datapath.default;
          "kernel=" ^ b.R.b_inner_index;
          "pipelined=true";
          "effort=50000000" ]
      in
      Uas_pass.Cu.store_put cu ~kind:"schedule" ~context:v1
        ("note -\n"
        ^ Sd.schedule_to_string
            { Sd.s_ii = 999; s_times = [||]; s_length = 999 });
      Uas_pass.Cu.store_put cu ~kind:"report"
        ~context:(v1 @ [ "cost-model=1"; "name=pipelined" ])
        (Uas_hw.Estimate.report_to_string poisoned);
      Instrument.reset ();
      let r = run () in
      Alcotest.(check int) "no cost-model-1 entry served" 0
        (counter "cu.store-hit");
      Alcotest.(check int) "schedule and report both missed" 2
        (counter "cu.store-miss");
      Alcotest.(check int) "recomputed II" 10 r.Uas_hw.Estimate.r_ii;
      Alcotest.(check int) "poisoned plus fresh entries written" 4
        (Store.stats s).Store.st_writes;
      Instrument.reset ();
      ignore (run ());
      Alcotest.(check int) "the cost-model-2 entries serve" 2
        (counter "cu.store-hit"))

(* [check_schedule] is the [schedule] pass's post-condition on cached
   schedules too: an entry under the current key that decodes to an
   invalid schedule degrades the cell to the list schedule, with the
   violations on record, instead of reaching the estimate. *)
let test_invalid_cached_schedule_degrades () =
  let b = iir () in
  with_store (fun _s ->
      let cu =
        Uas_pass.Cu.make b.R.b_program ~outer_index:b.R.b_outer_index
          ~inner_index:b.R.b_inner_index
      in
      let g =
        (Uas_hw.Estimate.kernel_detail b.R.b_program ~index:b.R.b_inner_index)
          .D.Build.d_graph
      in
      let all_at_zero =
        { Sd.s_ii = 1;
          s_times = Array.make (D.Graph.node_count g) 0;
          s_length = 1 }
      in
      Uas_pass.Cu.store_put cu ~kind:"schedule"
        ~context:
          [ "target=" ^ Uas_hw.Datapath.fingerprint Uas_hw.Datapath.default;
            "kernel=" ^ b.R.b_inner_index;
            "pipelined=true";
            "effort=" ^ string_of_int Sd.default_exact_effort;
            "cost-model=" ^ string_of_int Uas_hw.Estimate.cost_model_version ]
        ("cert 1 optimal 1 0\n" ^ Sd.schedule_to_string all_at_zero);
      match
        N.run_version_cu b.R.b_program ~outer_index:b.R.b_outer_index
          ~inner_index:b.R.b_inner_index N.Pipelined
      with
      | Error d -> Alcotest.failf "pipelined: %s" (Uas_pass.Diag.to_string d)
      | Ok (cu, _, r) ->
        Alcotest.(check int) "served from the store" 1 (counter "cu.store-hit");
        Alcotest.(check bool) "violations on record" true
          (List.exists
             (fun (d : Uas_pass.Diag.t) -> d.Uas_pass.Diag.d_pass = "schedule")
             (Uas_pass.Cu.incidents cu));
        Alcotest.(check int) "degraded to the list schedule"
          (Sd.list_schedule g).Sd.s_length r.Uas_hw.Estimate.r_ii)

let test_verify_mode_clean () =
  with_store (fun _s ->
      let cold = render (E.run_benchmark ~versions ~jobs:1 (iir ())) in
      Store.set_verify true;
      let again = render (E.run_benchmark ~versions ~jobs:1 (iir ())) in
      Alcotest.(check string) "verify run byte-identical" cold again;
      Alcotest.(check bool) "recomputations matched the cache" true
        (counter "cu.store-verify-ok" > 0);
      Alcotest.(check int) "no mismatches" 0 (counter "cu.store-verify-mismatch"))

(* Poison a cached report (valid header, wrong content: the lie a
   checksum cannot catch) — verify mode recomputes, flags the
   mismatch as an incident, and replaces the entry. *)
let test_verify_mode_catches_poisoned_entry () =
  with_store (fun s ->
      let cold = render (E.run_benchmark ~versions ~jobs:1 (iir ())) in
      let reports_dir =
        Filename.concat (Filename.concat (Store.dir s) "objects") "report"
      in
      let poisoned = ref 0 in
      List.iter
        (fun path ->
          if Helpers.contains ~sub:reports_dir path then begin
            let contents = read_file path in
            (* rewrite the payload under a truthful header *)
            match String.index_opt contents '\n' with
            | None -> ()
            | Some _ ->
              let sep = "\n--\n" in
              let rec find i =
                if i + 4 > String.length contents then None
                else if String.equal (String.sub contents i 4) sep then Some i
                else find (i + 1)
              in
              (match find 0 with
              | None -> ()
              | Some i ->
                let header = String.sub contents 0 i in
                let payload =
                  String.sub contents (i + 4)
                    (String.length contents - i - 4)
                in
                let payload' = payload ^ "-poisoned" in
                let header' =
                  header
                  |> String.split_on_char '\n'
                  |> List.map (fun line ->
                         if String.length line > 4
                            && String.equal (String.sub line 0 4) "md5 "
                         then
                           "md5 " ^ Digest.to_hex (Digest.string payload')
                         else if
                           String.length line > 4
                           && String.equal (String.sub line 0 4) "len "
                         then "len " ^ string_of_int (String.length payload')
                         else line)
                  |> String.concat "\n"
                in
                write_file path (header' ^ sep ^ payload');
                incr poisoned)
          end)
        (object_files s);
      Alcotest.(check bool) "some reports poisoned" true (!poisoned > 0);
      Store.set_verify true;
      let row = E.run_benchmark ~versions ~jobs:1 (iir ()) in
      Store.set_verify false;
      Alcotest.(check string)
        "cells still computed fresh (byte-identical body)" cold
        (render
           { row with
             E.br_cells =
               List.map
                 (fun c -> { c with E.c_incidents = [] })
                 row.E.br_cells });
      Alcotest.(check bool) "mismatch counted" true
        (counter "cu.store-verify-mismatch" > 0);
      Alcotest.(check bool) "mismatch is an incident" true
        (List.exists
           (fun (c : E.cell) ->
             List.exists
               (fun d ->
                 Helpers.contains ~sub:"differs from recomputation"
                   (Uas_pass.Diag.to_string d))
               c.E.c_incidents)
           row.E.br_cells))

(* --- multi-process locking --- *)

(* Spawn a child process that takes the store's advisory file lock
   (fcntl locks are per-process, so same-process contention cannot
   exercise this path, and [Unix.fork] is unavailable once other
   suites have spawned domains).  The child signals readiness on its
   stdout and holds the lock until its stdin reaches EOF. *)
let spawn_lock_holder lock_path =
  let helper =
    Filename.concat (Filename.dirname Sys.executable_name) "lock_holder.exe"
  in
  (* cloexec: the child must not inherit the parent ends, or closing
     [in_w] here would never deliver its stdin EOF ([create_process]
     dup2s the two ends it is given, which clears cloexec) *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process helper [| helper; lock_path |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  ignore (Unix.read out_r (Bytes.create 1) 0 1);
  Unix.close out_r;
  let release () =
    (try Unix.close in_w with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  release

let test_evict_skips_under_foreign_lock () =
  let s = open_fresh ~max_bytes:4096 () in
  Instrument.set_enabled true;
  Instrument.reset ();
  Fun.protect ~finally:(fun () ->
      Instrument.reset ();
      Instrument.set_enabled false)
  @@ fun () ->
  let payload = String.make 200 'x' in
  for i = 1 to 40 do
    match
      Store.write s ~kind:"demo" ~key:(Store.key [ string_of_int i ]) payload
    with
    | Ok () -> ()
    | Error m -> Alcotest.failf "write %d: %s" i m
  done;
  let before = (Store.stats s).Store.st_evict_skipped in
  let release = spawn_lock_holder (Store.lock_file s) in
  Fun.protect ~finally:release (fun () ->
      Store.evict_now s;
      let st = Store.stats s in
      Alcotest.(check int) "sweep skipped, not an error" (before + 1)
        st.Store.st_evict_skipped;
      Alcotest.(check bool) "skip is an incident counter" true
        (counter "store.evict-skipped" > 0);
      let rendered = Format.asprintf "%a" Store.pp_stats s in
      Alcotest.(check bool) "pp_stats reports the skip" true
        (Helpers.contains ~sub:"skipped" rendered));
  (* lock released: the next sweep proceeds without another skip *)
  Store.evict_now s;
  Alcotest.(check int) "freed lock sweeps again" (before + 1)
    (Store.stats s).Store.st_evict_skipped

let test_write_waits_for_foreign_lock () =
  let s = open_fresh () in
  let release = spawn_lock_holder (Store.lock_file s) in
  let releaser = Thread.create (fun () -> Thread.delay 0.4; release ()) () in
  let t0 = Unix.gettimeofday () in
  (match Store.write s ~kind:"demo" ~key:(Store.key [ "held" ]) "payload" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write under a foreign lock errored: %s" m);
  let dt = Unix.gettimeofday () -. t0 in
  Thread.join releaser;
  Alcotest.(check bool)
    (Printf.sprintf "publish waited for the lock (%.3fs)" dt)
    true (dt >= 0.3);
  match Store.read s ~kind:"demo" ~key:(Store.key [ "held" ]) with
  | Store.Hit p -> Alcotest.(check string) "entry intact" "payload" p
  | Store.Miss | Store.Bad _ -> Alcotest.fail "entry lost under contention"

let test_scan_reports_contents () =
  let s = open_fresh () in
  Alcotest.(check (pair int int)) "fresh store is empty" (0, 0) (Store.scan s);
  List.iter
    (fun k ->
      match Store.write s ~kind:"demo" ~key:(Store.key [ k ]) ("v-" ^ k) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "write %s: %s" k m)
    [ "a"; "b"; "c" ];
  let count, bytes = Store.scan s in
  Alcotest.(check int) "one object per write" 3 count;
  Alcotest.(check bool) "bytes accounted" true (bytes > 0)

(* --- frozen canonical text ---

   Every store key hashes [Pp.program_to_string], so the printer's
   output is byte-frozen: any change to it re-keys every entry and
   turns a warm store cold.  These digests pin the canonical text of
   all 50 Table 6.2 programs and the 5 Wavelet3 versions; the store
   key pins how the text, rewrite trail and context combine. *)

let frozen_text_md5 =
  [
    ("Skipjack-mem", "original", "887f43e8fdd96594c58eb771b2d9dd16");
    ("Skipjack-mem", "pipelined", "887f43e8fdd96594c58eb771b2d9dd16");
    ("Skipjack-mem", "squash(2)", "df2dc457f54aa3182fe1b77391aa6eb5");
    ("Skipjack-mem", "squash(4)", "b205822be05fc3058cc42902e73f8aa4");
    ("Skipjack-mem", "squash(8)", "82b16490318f332638ae0ce17067e741");
    ("Skipjack-mem", "squash(16)", "7d7af728de4801b98d447add2a5fdd83");
    ("Skipjack-mem", "jam(2)", "2c6fe33dd2b4b955051b19bf16c39ed8");
    ("Skipjack-mem", "jam(4)", "5fa7e50426fe19dde75c4a7d480fed26");
    ("Skipjack-mem", "jam(8)", "9f01ce8241906a1be0731ec1b3e7356e");
    ("Skipjack-mem", "jam(16)", "5e5180e8a0e9c72213ecb3c0c4a97bee");
    ("Skipjack-hw", "original", "f195afac60e3da6f91a3abc32eef8b43");
    ("Skipjack-hw", "pipelined", "f195afac60e3da6f91a3abc32eef8b43");
    ("Skipjack-hw", "squash(2)", "04cef897e12c2d1210a4d1fad2482ab1");
    ("Skipjack-hw", "squash(4)", "9e17a26ee7f3a7be3d087e786603326e");
    ("Skipjack-hw", "squash(8)", "ba6096d2f96a0dbd4739966a38008591");
    ("Skipjack-hw", "squash(16)", "99d629438784e4a0e1223850be822ec4");
    ("Skipjack-hw", "jam(2)", "7db93e73671ccde30ece36b283a644a0");
    ("Skipjack-hw", "jam(4)", "00ab83c6dce0b9fe4309c17389690332");
    ("Skipjack-hw", "jam(8)", "52a95071f452dae279efe50975102e8d");
    ("Skipjack-hw", "jam(16)", "bdb91befa38411c8261d45450ede822a");
    ("DES-mem", "original", "d49f0cb9ee7db24cb810bacb2a56e9f7");
    ("DES-mem", "pipelined", "d49f0cb9ee7db24cb810bacb2a56e9f7");
    ("DES-mem", "squash(2)", "f5968da5ed123541935bcd194787228a");
    ("DES-mem", "squash(4)", "3bba013504d79919af377a4ff14eaf45");
    ("DES-mem", "squash(8)", "251c9f0dc44046a2d38e154533886eb7");
    ("DES-mem", "squash(16)", "7e244126d7d39f638b619b7d92c0b423");
    ("DES-mem", "jam(2)", "e94b8f80aeb71cd125faaf019f25ea18");
    ("DES-mem", "jam(4)", "75b0a80264b4752ed584bba9fc8301e7");
    ("DES-mem", "jam(8)", "66ab41783b33f40c9590a59d9e8bfb5e");
    ("DES-mem", "jam(16)", "7c793df3313fe7e78af3078f38ca2ffb");
    ("DES-hw", "original", "85ebd803c8251e84afb92e85408dfca9");
    ("DES-hw", "pipelined", "85ebd803c8251e84afb92e85408dfca9");
    ("DES-hw", "squash(2)", "9d611cad41f59ebb96eb4278752cb5e1");
    ("DES-hw", "squash(4)", "3980d41e70819bee8037267e98d74224");
    ("DES-hw", "squash(8)", "6465fdc53a66da2c30e419c8f1119a91");
    ("DES-hw", "squash(16)", "0d3a07e5a66676a3ec753acc18bb6202");
    ("DES-hw", "jam(2)", "6e1a550b8f6f11b9b970da2c81a4d686");
    ("DES-hw", "jam(4)", "cffe1bbf40430f88be92ce861ec51657");
    ("DES-hw", "jam(8)", "3b336cb72c0c01fce70a3daf564c1a96");
    ("DES-hw", "jam(16)", "2ea063db6b29594db1de85786fda8c01");
    ("IIR", "original", "cbbaafdf689e5a028ec56248b43d95de");
    ("IIR", "pipelined", "cbbaafdf689e5a028ec56248b43d95de");
    ("IIR", "squash(2)", "1ca1bafcfc84908aec2bab3fae531487");
    ("IIR", "squash(4)", "43174c71679a2885c765c649aba378cb");
    ("IIR", "squash(8)", "aa99946e54771ef20747e4365e5af0dc");
    ("IIR", "squash(16)", "04b5e2b6ece3d96384e5b2186ad6b038");
    ("IIR", "jam(2)", "8f705d87d9dbdb7a841b28b30db13292");
    ("IIR", "jam(4)", "068faa9f39143eabce64a53a9c4f768c");
    ("IIR", "jam(8)", "c1a819a9b1ee0443a34ff8643f354b0a");
    ("IIR", "jam(16)", "2db51162c08476cd4df7bb89bdce4667");
    ("Wavelet3", "original", "4fe92c1658e61b030583c2de2e78183a");
    ("Wavelet3", "pipelined", "4fe92c1658e61b030583c2de2e78183a");
    ("Wavelet3", "flatten+squash(2)", "e5041fb95a857b7562ebcaf5932b4505");
    ("Wavelet3", "flatten+squash(4)", "0e521b454c7ff8fe123d0d7dc16d9703");
    ("Wavelet3", "flatten+squash(8)", "15dc91b56135098a05411811b2013f48") ]

let frozen_cells () =
  List.concat_map
    (fun (b : R.benchmark) ->
      let versions =
        if String.equal b.R.b_name "Wavelet3" then N.versions_for ~depth:3
        else N.paper_versions
      in
      List.map
        (fun v ->
          let built =
            N.build_version b.R.b_program ~outer_index:b.R.b_outer_index
              ~inner_index:b.R.b_inner_index v
          in
          ((b.R.b_name, N.version_name v), built.N.bv_program))
        versions)
    (R.all () @ [ R.wavelet3 () ])

let test_canonical_text_frozen () =
  let cells = frozen_cells () in
  Alcotest.(check int) "cell count" (List.length frozen_text_md5)
    (List.length cells);
  List.iter2
    (fun (bench, version, md5) ((b, v), p) ->
      let label = bench ^ " " ^ version in
      Alcotest.(check (pair string string)) "cell order" (bench, version) (b, v);
      let text = Pp.program_to_string p in
      Alcotest.(check string) (label ^ " text digest") md5
        (Digest.to_hex (Digest.string text));
      Alcotest.(check string) (label ^ " pp_program = program_to_string") text
        (Fmt.str "%a" Pp.pp_program p))
    frozen_text_md5 cells

let test_store_key_frozen () =
  let b = R.iir () in
  match
    N.run_version_cu b.R.b_program ~outer_index:b.R.b_outer_index
      ~inner_index:b.R.b_inner_index (N.Squashed 4)
  with
  | Error d -> Alcotest.failf "IIR squash(4): %s" (Uas_pass.Diag.to_string d)
  | Ok (cu, _, _) ->
    Alcotest.(check string) "trail" "squash{factor=4}"
      (String.concat ";" (Uas_pass.Cu.trail cu));
    Alcotest.(check string) "IIR squash(4) schedule key"
      "7e3e8c776a931f50718de822c80d567d"
      (Uas_pass.Cu.store_key cu ~kind:"schedule"
         ~context:[ "kernel=" ^ Uas_pass.Cu.inner_index cu; "pipelined=true" ])

let suite =
  [ Alcotest.test_case "write/read round-trip" `Quick
      test_write_read_roundtrip;
    Alcotest.test_case "unknown key is a miss" `Quick
      test_unknown_key_is_miss;
    Alcotest.test_case "key hashes part boundaries" `Quick
      test_key_separates_parts;
    Alcotest.test_case "flipped bit classifies as Bad" `Quick
      test_flipped_bit_is_bad;
    Alcotest.test_case "truncated entry classifies as Bad" `Quick
      test_truncated_entry_is_bad;
    Alcotest.test_case "entry under the wrong key is Bad" `Quick
      test_entry_under_wrong_key_is_bad;
    Alcotest.test_case "eviction bounds the store size" `Quick
      test_eviction_bounds_size;
    Alcotest.test_case "schedule serialization round-trip" `Quick
      test_schedule_serialization_roundtrip;
    Alcotest.test_case "exact certificate round-trip" `Quick
      test_exact_serialization_roundtrip;
    Alcotest.test_case "estimate report round-trip" `Quick
      test_report_serialization_roundtrip;
    Alcotest.test_case "report names pass verbatim" `Quick
      test_report_name_verbatim;
    Alcotest.test_case "warm run byte-identical, served from store" `Quick
      test_warm_run_identical_and_served;
    Alcotest.test_case "warm exact-report run byte-identical" `Quick
      test_warm_exact_report_identical;
    Alcotest.test_case "retired-kind entry: warm table-6.2 = golden" `Slow
      test_retired_kind_entry_ignored;
    Alcotest.test_case "cost-model-1 entries are misses" `Quick
      test_old_cost_model_is_miss;
    Alcotest.test_case "invalid cached schedule degrades" `Quick
      test_invalid_cached_schedule_degrades;
    Alcotest.test_case "verify mode: clean cache, no incidents" `Quick
      test_verify_mode_clean;
    Alcotest.test_case "verify mode: poisoned entry flagged" `Quick
      test_verify_mode_catches_poisoned_entry;
    Alcotest.test_case "eviction skips under a foreign lock" `Quick
      test_evict_skips_under_foreign_lock;
    Alcotest.test_case "publish waits for a foreign lock" `Quick
      test_write_waits_for_foreign_lock;
    Alcotest.test_case "scan reports the store contents" `Quick
      test_scan_reports_contents;
    Alcotest.test_case "canonical text frozen (Table 6.2 + Wavelet3)" `Quick
      test_canonical_text_frozen;
    Alcotest.test_case "store key frozen" `Quick test_store_key_frozen ]
