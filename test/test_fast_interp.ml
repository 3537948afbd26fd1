(* The fast-tier contract: the slot-compiled interpreter must be
   observationally identical to the reference tree-walker — outputs,
   final scalars, the complete cycle/trip/mem-ref profile, the same
   Stuck messages and the same Out_of_fuel cutoff.  The reference
   interpreter stays the oracle everywhere in this file; the fast tier
   is always the candidate. *)

open Uas_ir
module N = Uas_core.Nimble
module R = Uas_bench_suite.Registry

(* run both tiers; fail the test with the first difference *)
let check_parity ~msg (p : Stmt.program) (w : Interp.workload) =
  let reference = Interp.run p w in
  let fast = Fast_interp.run_program p w in
  match Interp.diff_results reference fast with
  | None -> ()
  | Some d -> Alcotest.failf "%s: fast tier diverges: %s" msg d

(* --- random nests, all transform versions ------------------------- *)

let fast_versions = [ N.Original; N.Squashed 2; N.Squashed 4; N.Jammed 2;
                      N.Combined (2, 2) ]

let test_qcheck_fast_tier_bit_identical =
  QCheck.Test.make
    ~name:"fast tier = reference (results + profiles), all versions"
    ~count:40 Helpers.arbitrary_diff_nest_program
    (fun p ->
      let w = Helpers.random_workload ~seed:23 p in
      List.iter
        (fun v ->
          match
            N.build_version_result p ~outer_index:"i" ~inner_index:"j" v
          with
          | Error _ -> ()  (* illegal at this factor: dropped, as in sweep *)
          | Ok b -> (
            let reference = Interp.run b.N.bv_program w in
            let fast = Fast_interp.run_program b.N.bv_program w in
            match Interp.diff_results reference fast with
            | None -> ()
            | Some d ->
              QCheck.Test.fail_reportf "%s: fast tier diverges: %s@\n%a"
                (N.version_name v) d Pp.pp_program b.N.bv_program))
        fast_versions;
      true)

(* compilation must be reusable: one compiled program replayed on
   several workloads, each bit-identical to a fresh reference run *)
let test_compiled_reuse =
  QCheck.Test.make ~name:"one compilation, many workloads" ~count:20
    Helpers.arbitrary_nest_program
    (fun p ->
      let compiled = Fast_interp.compile p in
      List.iter
        (fun seed ->
          let w = Helpers.random_workload ~seed p in
          let reference = Interp.run p w in
          let fast = Fast_interp.run compiled w in
          match Interp.diff_results reference fast with
          | None -> ()
          | Some d ->
            QCheck.Test.fail_reportf "seed %d: fast tier diverges: %s" seed d)
        [ 1; 2; 3 ];
      true)

(* --- rewritten nests, both tiers ---------------------------------- *)

module Rw = Uas_transform.Rewrite
module Cu = Uas_pass.Cu

let rw_params ?target ?factor ?cut () = { Rw.target; factor; cut }

let apply_rewrite name params p =
  Rw.apply ~params (Rw.get name)
    (Cu.make p ~outer_index:"i" ~inner_index:"j")

(* a legal rewrite must (1) preserve the reference outputs and (2) keep
   the two tiers bit-identical on the rewritten program *)
let check_rewritten_parity ~msg p q w =
  (match Interp.diff_outputs (Interp.run p w) (Interp.run q w) with
  | None -> ()
  | Some d ->
    Alcotest.failf "%s: rewrite changed the outputs: %s@\n%a" msg d
      Pp.pp_program q);
  match Interp.diff_results (Interp.run q w) (Fast_interp.run_program q w) with
  | None -> ()
  | Some d ->
    Alcotest.failf "%s: fast tier diverges: %s@\n%a" msg d Pp.pp_program q

(* the enabling rewrites on random nests: tiling always applies;
   distribution (and fusion re-merging its output) whenever the cut is
   legal on the generated body *)
let test_qcheck_enabling_rewrites_parity =
  QCheck.Test.make
    ~name:"tiling/distribute/fusion keep tiers bit-identical (random nests)"
    ~count:40 Helpers.arbitrary_diff_nest_program
    (fun p ->
      let w = Helpers.random_workload ~seed:31 p in
      (match apply_rewrite "tiling" (rw_params ~factor:3 ()) p with
      | Error d ->
        Alcotest.failf "tiling refused: %s" (Uas_pass.Diag.to_string d)
      | Ok cu -> check_rewritten_parity ~msg:"tiling" p (Cu.program cu) w);
      (match apply_rewrite "distribute" (rw_params ~cut:1 ()) p with
      | Error _ -> () (* a value crosses the cut: legitimately refused *)
      | Ok cu -> (
        let q = Cu.program cu in
        check_rewritten_parity ~msg:"distribute" p q w;
        match apply_rewrite "fusion" Rw.default_params q with
        | Error _ -> ()
        | Ok cu2 ->
          check_rewritten_parity ~msg:"distribute+fusion" p (Cu.program cu2) w));
      true)

(* perfect static nests are interchange/flatten-legal by construction:
   assert the rewrites apply, then check both tiers on the result *)
let test_qcheck_perfect_nest_rewrites_parity =
  QCheck.Test.make
    ~name:"interchange/flatten/tiling keep tiers bit-identical (perfect nests)"
    ~count:40 Helpers.arbitrary_perfect_nest_program
    (fun p ->
      let w = Helpers.random_workload ~seed:47 p in
      List.iter
        (fun (msg, name, ps) ->
          match apply_rewrite name ps p with
          | Error d ->
            Alcotest.failf "%s refused on a perfect nest: %s" msg
              (Uas_pass.Diag.to_string d)
          | Ok cu -> check_rewritten_parity ~msg p (Cu.program cu) w)
        [ ("interchange", "interchange", Rw.default_params);
          ("tiling(2)", "tiling", rw_params ~factor:2 ());
          ("flatten", "flatten", Rw.default_params) ];
      true)

(* distribution then fusion on a two-stream nest, both legal by
   construction — the guaranteed-coverage counterpart of the
   opportunistic random-nest case above *)
let test_distribute_fusion_parity () =
  let m = 4 and n = 6 in
  let module B = Builder in
  let at = B.((v "i" * int n) + v "j") in
  let p =
    B.program "streams"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint) ]
      ~arrays:
        [ B.input "s1" (m * n); B.input "s2" (m * n); B.output "d1" (m * n);
          B.output "d2" (m * n) ]
      [ B.for_ "i" ~hi:(B.int m)
          [ B.for_ "j" ~hi:(B.int n)
              [ B.store "d1" at (B.load "s1" at);
                B.store "d2" at (B.load "s2" at) ] ]
      ]
  in
  let w = Helpers.random_workload p in
  match apply_rewrite "distribute" (rw_params ~cut:1 ()) p with
  | Error d -> Alcotest.failf "distribute refused: %s" (Uas_pass.Diag.to_string d)
  | Ok cu -> (
    let q = Cu.program cu in
    check_rewritten_parity ~msg:"distribute" p q w;
    match apply_rewrite "fusion" Rw.default_params q with
    | Error d -> Alcotest.failf "fusion refused: %s" (Uas_pass.Diag.to_string d)
    | Ok cu2 -> check_rewritten_parity ~msg:"fusion" p (Cu.program cu2) w)

(* --- the whole Table 6.1 suite ------------------------------------ *)

let test_registry_benchmarks_identical () =
  List.iter
    (fun (b : R.benchmark) ->
      check_parity ~msg:b.R.b_name b.R.b_program b.R.b_workload)
    (R.all () @ R.extras ())

let test_registry_check_fast_tier () =
  List.iter
    (fun (b : R.benchmark) ->
      match R.check_against_reference ~tier:Fast_interp.Fast b b.R.b_program with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: fast-tier check failed: %s" b.R.b_name e)
    (R.all () @ R.extras ())

(* --- Stuck parity -------------------------------------------------- *)

module B = Builder

let stuck_of f =
  match f () with
  | (_ : Interp.result) -> None
  | exception Interp.Stuck m -> Some m

let check_stuck_parity ~msg p w =
  let reference = stuck_of (fun () -> Interp.run p w) in
  let fast = stuck_of (fun () -> Fast_interp.run_program p w) in
  match (reference, fast) with
  | Some a, Some b -> Alcotest.(check string) (msg ^ ": same message") a b
  | None, None -> Alcotest.failf "%s: expected Stuck from both tiers" msg
  | Some a, None -> Alcotest.failf "%s: only reference stuck (%s)" msg a
  | None, Some b -> Alcotest.failf "%s: only fast tier stuck (%s)" msg b

let w0 = Interp.workload ()

let nest body =
  B.program "stuck" ~locals:[ ("i", Types.Tint); ("a", Types.Tint) ]
    ~arrays:[ B.output "dst" 4 ]
    ~roms:[ B.rom_decl "tab" [| 1; 2; 3 |] ]
    [ B.for_ "i" ~hi:(B.int 4) body ]

let test_stuck_parity () =
  check_stuck_parity ~msg:"store out of bounds"
    (nest [ B.store "dst" (B.int 9) (B.v "i") ])
    w0;
  check_stuck_parity ~msg:"load from undeclared array"
    (nest [ B.("a" <-- load "nope" (v "i")) ])
    w0;
  check_stuck_parity ~msg:"store to undeclared array"
    (nest [ B.store "nope" (B.v "i") (B.v "i") ])
    w0;
  check_stuck_parity ~msg:"read of undeclared scalar"
    (nest [ B.store "dst" (B.v "i") (B.v "ghost") ])
    w0;
  check_stuck_parity ~msg:"assignment to undeclared scalar"
    (nest [ B.("ghost" <-- v "i") ])
    w0;
  check_stuck_parity ~msg:"division by zero"
    (nest [ B.("a" <-- v "i" / (v "i" - v "i")) ])
    w0;
  check_stuck_parity ~msg:"rom lookup out of bounds"
    (nest [ B.("a" <-- rom "tab" (v "i" + int 2)) ])
    w0;
  check_stuck_parity ~msg:"lookup in undeclared rom"
    (nest [ B.("a" <-- rom "missing" (v "i")) ])
    w0;
  check_stuck_parity ~msg:"non-integer loop bound"
    (B.program "fbound" ~locals:[ ("i", Types.Tint) ]
       [ B.for_ "i" ~hi:(B.flt 2.0) [] ])
    w0;
  check_stuck_parity ~msg:"workload sets undeclared scalar"
    (nest [ B.store "dst" (B.v "i") (B.v "i") ])
    (Interp.workload ~scalars:[ ("ghost", Types.VInt 1) ] ());
  check_stuck_parity ~msg:"workload array length mismatch"
    (B.program "wl" ~locals:[ ("i", Types.Tint) ]
       ~arrays:[ B.input "src" 4; B.output "dst" 4 ]
       [ B.for_ "i" ~hi:(B.int 4)
           [ B.store "dst" (B.v "i") (B.load "src" (B.v "i")) ] ])
    (Interp.workload ~arrays:[ ("src", [| Types.VInt 1 |]) ] ())

(* an undeclared loop index is admitted dynamically by the reference
   interpreter: legal to read after its loop ran, stuck before *)
let test_undeclared_index_parity () =
  let p after =
    B.program "undecl" ~locals:[ ("a", Types.Tint) ]
      ~arrays:[ B.output "dst" 4 ]
      ([ B.for_ "u" ~hi:(B.int 3) [ B.("a" <-- v "u") ] ] @ after)
  in
  check_parity ~msg:"read undeclared index after its loop"
    (p [ B.store "dst" (B.int 0) (B.v "u") ])
    w0;
  check_stuck_parity ~msg:"read undeclared index before its loop"
    (B.program "undecl2" ~locals:[ ("a", Types.Tint) ]
       ~arrays:[ B.output "dst" 4 ]
       [ B.store "dst" (B.int 0) (B.v "u");
         B.for_ "u" ~hi:(B.int 3) [ B.("a" <-- v "u") ] ])
    w0;
  (* a zero-trip loop still defines its index (the C-style exit value) *)
  check_parity ~msg:"zero-trip loop defines its index"
    (p [ B.for_ "u" ~lo:(B.int 5) ~hi:(B.int 2) [];
         B.store "dst" (B.int 1) (B.v "u") ])
    w0

(* a (degenerate) duplicated ROM name: the last declaration wins on
   both tiers, for its contents and its bounds *)
let test_duplicate_rom_parity () =
  let p at =
    B.program "dup_rom" ~locals:[ ("i", Types.Tint) ]
      ~arrays:[ B.output "dst" 4 ]
      ~roms:[ B.rom_decl "tab" [| 1; 2 |]; B.rom_decl "tab" [| 7; 8; 9; 10 |] ]
      [ B.for_ "i" ~hi:(B.int 4)
          [ B.store "dst" (B.v "i") B.(rom "tab" (v "i" + int at)) ] ]
  in
  check_parity ~msg:"last ROM declaration wins" (p 0) w0;
  check_stuck_parity ~msg:"bounds of the last ROM declaration" (p 1) w0

(* --- Out_of_fuel parity -------------------------------------------- *)

let test_fuel_parity () =
  let p = Helpers.fg_loop ~m:4 ~n:4 in
  let w = Helpers.random_workload p in
  (* total statements executed by a full run *)
  let full = (Interp.run p w).Interp.profile.Interp.stmts_executed in
  let runs_with fuel f =
    match f fuel with
    | (_ : Interp.result) -> true
    | exception Interp.Out_of_fuel -> false
  in
  List.iter
    (fun fuel ->
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d: same cutoff" fuel)
        (runs_with fuel (fun fuel -> Interp.run ~fuel p w))
        (runs_with fuel (fun fuel -> Fast_interp.run_program ~fuel p w)))
    [ 1; 2; full - 1; full; full + 1 ]

(* --- profile parity: loop accounting ------------------------------- *)

(* The fast tier credits a loop's inclusive cycles from the growth of
   the cycle counter between entry and exit; these shapes are where
   that could drift from the reference, which charges every enclosing
   loop on every operator. *)

let test_sibling_loops_share_path () =
  let p =
    B.program "siblings"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("a", Types.Tint) ]
      ~arrays:[ B.input "src" 8; B.output "dst" 8 ]
      [ B.for_ "i" ~hi:(B.int 4)
          [ B.for_ "j" ~hi:(B.int 3)
              [ B.("a" <-- v "a" + load "src" (v "i" + v "j")) ];
            B.for_ "j" ~hi:(B.int 2) [ B.("a" <-- v "a" * int 3) ];
            B.if_ B.(v "i" < int 2)
              [ B.for_ "j" ~hi:(B.int 5) [ B.("a" <-- v "a" - v "j") ] ]
              [ B.for_ "j" ~hi:(B.int 1) [ B.("a" <-- v "a" + int 7) ] ];
            B.store "dst" (B.v "i") (B.v "a") ];
        B.for_ "i" ~lo:(B.int 4) ~hi:(B.int 8)
          [ B.store "dst" (B.v "i") (B.load "src" (B.v "i")) ] ]
  in
  check_parity ~msg:"sibling loops sharing an index" p
    (Helpers.random_workload ~seed:5 p)

let test_inner_loop_reentered () =
  List.iter
    (fun (m, n) ->
      let p = Helpers.fg_loop ~m ~n in
      check_parity
        ~msg:(Printf.sprintf "inner loop re-entered (%dx%d)" m n)
        p (Helpers.random_workload p))
    [ (1, 1); (6, 5); (5, 0) ]

let test_wavelet3_nest_profiles () =
  let b = R.wavelet3 () in
  List.iter
    (fun v ->
      match
        N.build_version_result b.R.b_program ~outer_index:b.R.b_outer_index
          ~inner_index:b.R.b_inner_index v
      with
      | Error d ->
        Alcotest.failf "Wavelet3 %s: %s" (N.version_name v)
          (Uas_pass.Diag.to_string d)
      | Ok built ->
        check_parity
          ~msg:("Wavelet3 " ^ N.version_name v)
          built.N.bv_program b.R.b_workload)
    (N.versions_for ~depth:3)

(* a run that raises mid-loop abandons its loop credits; the next run
   of the same compiled value must not see any of them *)
let test_clean_run_after_mid_loop_raise () =
  let p =
    B.program "midloop"
      ~locals:[ ("i", Types.Tint); ("j", Types.Tint); ("a", Types.Tint) ]
      ~arrays:[ B.input "idx" 6; B.input "src" 4; B.output "dst" 6 ]
      [ B.for_ "i" ~hi:(B.int 6)
          [ B.for_ "j" ~hi:(B.int 3)
              [ B.("a" <-- v "a" + load "src" (load "idx" (v "i"))) ];
            B.store "dst" (B.v "i") (B.v "a") ] ]
  in
  let idx l = ("idx", Array.map (fun n -> Types.VInt n) l) in
  let src = ("src", Array.init 4 (fun n -> Types.VInt (n + 1))) in
  let clean = Interp.workload ~arrays:[ idx [| 0; 1; 2; 3; 2; 1 |]; src ] () in
  (* the fourth outer trip reads src[9] *)
  let bad = Interp.workload ~arrays:[ idx [| 0; 1; 2; 9; 2; 1 |]; src ] () in
  let compiled = Fast_interp.compile p in
  let expect_clean msg =
    match Interp.diff_results (Interp.run p clean) (Fast_interp.run compiled clean) with
    | None -> ()
    | Some d -> Alcotest.failf "%s: fast tier diverges: %s" msg d
  in
  expect_clean "first clean run";
  (match
     (stuck_of (fun () -> Interp.run p bad),
      stuck_of (fun () -> Fast_interp.run compiled bad))
   with
  | Some a, Some b -> Alcotest.(check string) "same Stuck message" a b
  | _ -> Alcotest.fail "expected Stuck from both tiers");
  expect_clean "clean run after Stuck";
  let full = (Interp.run p clean).Interp.profile.Interp.stmts_executed in
  List.iter
    (fun fuel ->
      (match Fast_interp.run ~fuel compiled clean with
      | _ -> Alcotest.failf "fuel %d: expected Out_of_fuel" fuel
      | exception Interp.Out_of_fuel -> ());
      expect_clean (Printf.sprintf "clean run after Out_of_fuel at %d" fuel))
    [ 5; full / 2; full - 1 ]

(* --- allocation ---------------------------------------------------- *)

(* Profiling and dispatch allocate nothing per operator: what remains
   is boxing the values computed.  A per-operator closure or list walk
   coming back would roughly triple this. *)
let test_allocation_per_statement () =
  List.iter
    (fun (b : R.benchmark) ->
      let built =
        N.build_version b.R.b_program ~outer_index:b.R.b_outer_index
          ~inner_index:b.R.b_inner_index (N.Squashed 16)
      in
      let compiled = Fast_interp.compile built.N.bv_program in
      let before = Gc.minor_words () in
      let r = Fast_interp.run compiled b.R.b_workload in
      let words = Gc.minor_words () -. before in
      let per_stmt =
        words /. float_of_int r.Interp.profile.Interp.stmts_executed
      in
      if per_stmt > 3.0 then
        Alcotest.failf "%s squash(16): %.2f minor words per statement (> 3)"
          b.R.b_name per_stmt)
    (R.all ())

(* --- tier plumbing ------------------------------------------------- *)

let test_tier_of_string () =
  let check s expected =
    Alcotest.(check bool) s true (Fast_interp.tier_of_string s = expected)
  in
  check "ref" (Some Fast_interp.Ref);
  check "reference" (Some Fast_interp.Ref);
  check "fast" (Some Fast_interp.Fast);
  check "FAST" (Some Fast_interp.Fast);
  check "turbo" None

(* the retired native tier's names parse to no tier at all, in any case,
   so a stale "native" setting cannot select a tier that no longer exists *)
let test_tier_of_string_native () =
  let check s =
    Alcotest.(check bool) s true (Fast_interp.tier_of_string s = None)
  in
  check "native";
  check "NATIVE";
  check "jit"

(* a UAS_INTERP left over from a build with more tiers is a one-line
   configuration error naming the valid tiers, not a silent fallback *)
let test_env_tier_error_stale () =
  let prev = Sys.getenv_opt Fast_interp.env_var in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Fast_interp.env_var (Option.value prev ~default:"fast"))
  @@ fun () ->
  Unix.putenv Fast_interp.env_var "native";
  match Fast_interp.env_tier_error () with
  | None -> Alcotest.fail "UAS_INTERP=native accepted"
  | Some m ->
    Alcotest.(check bool) "names ref or fast" true
      (Helpers.contains ~sub:"ref or fast" m);
    Alcotest.(check bool) "one line" false (String.contains m '\n')

(* the unit memoizes its compiled program: repeated access is the same
   artifact (counted as a cu.compiled-hit), and a program change through
   with_program compiles afresh without disturbing the original unit *)
let test_cu_compiled_reuse () =
  let module Instrument = Uas_runtime.Instrument in
  let hits () =
    Option.value ~default:0
      (List.assoc_opt "cu.compiled-hit" (Instrument.counters ()))
  in
  Instrument.reset ();
  Instrument.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Instrument.set_enabled false;
      Instrument.reset ())
  @@ fun () ->
  let p = Helpers.fg_loop ~m:4 ~n:4 in
  let cu = Cu.make p ~outer_index:"i" ~inner_index:"j" in
  let a = Cu.compiled cu in
  let before = hits () in
  Alcotest.(check bool) "same compiled artifact" true (Cu.compiled cu == a);
  Alcotest.(check int) "reuse counted as a hit" (before + 1) (hits ());
  let q = Helpers.fg_loop ~m:3 ~n:5 in
  let c = Cu.compiled (Cu.with_program cu q) in
  Alcotest.(check bool) "new program, new artifact" false (c == a);
  let w = Helpers.random_workload q in
  (match Interp.diff_results (Interp.run q w) (Fast_interp.run c w) with
  | None -> ()
  | Some d -> Alcotest.failf "rebuilt artifact diverges: %s" d);
  Alcotest.(check bool) "original still cached" true (Cu.compiled cu == a)

let test_run_tier_dispatch () =
  let p = Helpers.fg_loop ~m:3 ~n:3 in
  let w = Helpers.random_workload p in
  let a = Fast_interp.run_tier Fast_interp.Ref p w in
  let b = Fast_interp.run_tier Fast_interp.Fast p w in
  match Interp.diff_results a b with
  | None -> ()
  | Some d -> Alcotest.failf "tiers diverge: %s" d

(* the satellite fix: a missing output array must be reported with the
   benchmark name and the outputs the run actually produced *)
let test_registry_missing_output_message () =
  let b = R.skipjack_mem ~m:4 () in
  let b' =
    { b with R.b_reference = [ ("data_missing", [| Types.VInt 0 |]) ] }
  in
  match R.check_against_reference ~tier:Fast_interp.Fast b' b.R.b_program with
  | Ok () -> Alcotest.fail "expected a missing-output error"
  | Error msg ->
    let has sub =
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S" sub)
        true
        (Helpers.contains ~sub msg)
    in
    has "Skipjack-mem";
    has "data_missing";
    has "data_out"

(* the experiments path: table cells must verify identically on either
   tier (the sweep runs verification on the fast tier by default) *)
let test_run_benchmark_tiers_agree () =
  let module E = Uas_core.Experiments in
  let b = R.skipjack_mem ~m:8 () in
  let row tier =
    (E.run_benchmark ~verify:true ~tier ~versions:fast_versions ~jobs:2 b)
      .E.br_cells
  in
  let fast = row Fast_interp.Fast and reference = row Fast_interp.Ref in
  Alcotest.(check int) "cell count" (List.length reference) (List.length fast);
  List.iter2
    (fun (c1 : E.cell) (c2 : E.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s verified on both tiers"
           (N.version_name c1.E.c_version))
        true
        (c1.E.c_verified && c2.E.c_verified);
      Alcotest.(check bool) "same report" true (c1.E.c_report = c2.E.c_report))
    reference fast

let suite =
  [ QCheck_alcotest.to_alcotest test_qcheck_fast_tier_bit_identical;
    QCheck_alcotest.to_alcotest test_compiled_reuse;
    QCheck_alcotest.to_alcotest test_qcheck_enabling_rewrites_parity;
    QCheck_alcotest.to_alcotest test_qcheck_perfect_nest_rewrites_parity;
    Alcotest.test_case "distribute+fusion parity (two streams)" `Quick
      test_distribute_fusion_parity;
    Alcotest.test_case "registry benchmarks bit-identical" `Slow
      test_registry_benchmarks_identical;
    Alcotest.test_case "registry check passes on fast tier" `Slow
      test_registry_check_fast_tier;
    Alcotest.test_case "Stuck parity (messages bit-identical)" `Quick
      test_stuck_parity;
    Alcotest.test_case "undeclared loop index parity" `Quick
      test_undeclared_index_parity;
    Alcotest.test_case "duplicated ROM name parity" `Quick
      test_duplicate_rom_parity;
    Alcotest.test_case "Out_of_fuel parity" `Quick test_fuel_parity;
    Alcotest.test_case "profile parity: sibling loops share a path" `Quick
      test_sibling_loops_share_path;
    Alcotest.test_case "profile parity: inner loop re-entered" `Quick
      test_inner_loop_reentered;
    Alcotest.test_case "profile parity: 3-deep Wavelet3 nest" `Quick
      test_wavelet3_nest_profiles;
    Alcotest.test_case "profile parity: clean run after a mid-loop raise"
      `Quick test_clean_run_after_mid_loop_raise;
    Alcotest.test_case "allocation per statement (squash(16))" `Quick
      test_allocation_per_statement;
    Alcotest.test_case "tier_of_string" `Quick test_tier_of_string;
    Alcotest.test_case "UAS_INTERP=native is rejected" `Quick
      test_env_tier_error_stale;
    Alcotest.test_case "Cu compiled artifact reuse + invalidation" `Quick
      test_cu_compiled_reuse;
    Alcotest.test_case "run_tier dispatch" `Quick test_run_tier_dispatch;
    Alcotest.test_case "missing output error names benchmark" `Quick
      test_registry_missing_output_message;
    Alcotest.test_case "run_benchmark: ref and fast tiers agree" `Slow
      test_run_benchmark_tiers_agree ]

(* the tier-name checks kept for the retired native tier *)
let native_suite =
  [ Alcotest.test_case "tier_of_string native" `Quick
      test_tier_of_string_native ]
