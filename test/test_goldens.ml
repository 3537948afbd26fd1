(* Golden initiation intervals for the full benchmark suite at the
   paper's default sizes and target.  These pin the behaviour of the
   whole stack — benchmarks, DFG construction, memory disambiguation,
   recurrence analysis and the modulo scheduler — so an accidental
   regression in any layer shows up as a changed II.

   If a deliberate improvement shifts a value, update the table AND the
   corresponding discussion in EXPERIMENTS.md. *)

module S = Uas_bench_suite
module N = Uas_core.Nimble

(* (benchmark, [original; pipelined; squash 2/4/8/16; jam 2/4/8/16]) *)
let golden_iis =
  [ ("Skipjack-mem", [ 33; 21; 11; 6; 4; 4; 21; 21; 32; 64 ]);
    ("Skipjack-hw", [ 28; 17; 9; 5; 3; 2; 17; 17; 17; 17 ]);
    ("DES-mem", [ 17; 17; 9; 5; 5; 5; 17; 18; 36; 72 ]);
    ("DES-hw", [ 14; 14; 7; 4; 2; 1; 14; 14; 14; 14 ]);
    ("IIR", [ 70; 10; 5; 3; 2; 1; 10; 10; 10; 16 ]) ]

let test_golden_iis () =
  List.iter
    (fun (b : S.Registry.benchmark) ->
      let expected = List.assoc b.S.Registry.b_name golden_iis in
      let rows =
        N.sweep b.S.Registry.b_program
          ~outer_index:b.S.Registry.b_outer_index
          ~inner_index:b.S.Registry.b_inner_index
        |> N.successes
      in
      let got =
        List.map (fun (_, _, r) -> r.Uas_hw.Estimate.r_ii) rows
      in
      Alcotest.(check (list int))
        (b.S.Registry.b_name ^ " initiation intervals")
        expected got)
    (S.Registry.all ())

(* spot checks of the structural counts that drive the area story *)
let test_golden_structure () =
  let check name ~mem ~ops (b : S.Registry.benchmark) =
    let r =
      Uas_hw.Estimate.kernel ~pipelined:false b.S.Registry.b_program
        ~index:b.S.Registry.b_inner_index
    in
    Alcotest.(check int) (name ^ " memory refs") mem
      r.Uas_hw.Estimate.r_mem_refs;
    Alcotest.(check int) (name ^ " operators") ops
      r.Uas_hw.Estimate.r_operators
  in
  check "skipjack-mem" ~mem:8 ~ops:42 (S.Registry.skipjack_mem ());
  check "skipjack-hw" ~mem:0 ~ops:42 (S.Registry.skipjack_hw ());
  check "des-mem" ~mem:9 ~ops:73 (S.Registry.des_mem ());
  check "iir" ~mem:2 ~ops:42 (S.Registry.iir ())

let suite =
  [ Alcotest.test_case "golden IIs" `Slow test_golden_iis;
    Alcotest.test_case "golden structure" `Quick test_golden_structure ]
