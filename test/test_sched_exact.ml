(* The modulo scheduler: branch-and-bound certification of the optimal
   initiation interval, the register-aware completion step, the
   schedule-validity checker every schedule must satisfy — including a
   hand-built nest where an iterative heuristic is provably loose — and
   the effort-budget degradation path. *)

open Uas_ir
module D = Uas_dfg
module B = Builder
module Sd = D.Sched

let build body = fst (D.Build.build ~inner_index:"j" body)

let check_ok name g s =
  match Sd.check_schedule g s with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "%s: %s" name (String.concat "; " msgs)

let check_rejected name g s =
  match Sd.check_schedule g s with
  | Ok () -> Alcotest.failf "%s: invalid schedule accepted" name
  | Error _ -> ()

(* the classic a -> b -> a recurrence: RecMII 4, every edge of the
   cycle tight at II 4 *)
let fg_body =
  [ B.("b" <-- band (v "a" + int 3) (int 255));
    B.("a" <-- bxor (v "b" + v "b") (int 21)) ]

(* k loads + 1 store on two ports: ResMII = ceil((k+1)/2) *)
let mem_heavy_body k =
  List.init k (fun t ->
      B.(Printf.sprintf "x%d" t <-- load "a" (v "j" + int t)))
  @ [ B.store "o" (B.v "j")
        (List.fold_left
           (fun acc t -> B.(acc + v (Printf.sprintf "x%d" t)))
           (B.int 0)
           (List.init k (fun t -> t))) ]

(* k jammed copies of a distance-1 memory recurrence (w[j] from
   w[j-1]): RecMII 5 per copy, 2k memory ops.  At k = 5 the ports are
   exactly saturated at the recurrence bound: greedy iterative modulo
   scheduling settles at II 6, where the exact search certifies a
   witness at the lower bound 5. *)
let jam_rec k =
  List.concat
    (List.init k (fun c ->
         let x = Printf.sprintf "x%d" c in
         let w = Printf.sprintf "w%d" c in
         [ B.(x <-- load w (v "j" - int 1));
           B.(x <-- band (v x + int 3) (int 255));
           B.store w (B.v "j") (B.v x) ]))

let bodies =
  [ ("fg", fg_body);
    ("mem-heavy 4", mem_heavy_body 4);
    ("mem-heavy 9", mem_heavy_body 9);
    ("jam-rec 3", jam_rec 3);
    ("jam-rec 5", jam_rec 5) ]

let optimal g = fst (Sd.optimal_schedule g)

(* --- the validity checker accepts what the schedulers produce --- *)

let test_check_accepts_backends () =
  List.iter
    (fun (name, body) ->
      let g = build body in
      check_ok (name ^ " list") g (Sd.list_schedule g);
      check_ok (name ^ " raw witness") g
        (fst (Sd.optimal_schedule ~compact:false g));
      check_ok (name ^ " optimal") g (optimal g))
    bodies

(* --- the scheduler certifies its II --- *)

let test_exact_certifies () =
  List.iter
    (fun (name, body) ->
      let g = build body in
      let s, c = Sd.optimal_schedule g in
      (match c.Sd.cert_status with
      | Sd.Exact_optimal -> ()
      | st ->
        Alcotest.failf "%s: not certified (%s)" name (Sd.exact_status_name st));
      check_ok (name ^ " certified schedule") g s;
      let lb = Sd.min_ii Sd.default_config g in
      Alcotest.(check bool)
        (name ^ " min_ii <= optimal") true (lb <= s.Sd.s_ii);
      Alcotest.(check bool)
        (name ^ " optimal <= list length") true
        (s.Sd.s_ii <= (Sd.list_schedule g).Sd.s_length);
      Alcotest.(check int)
        (name ^ " proved = optimal") s.Sd.s_ii c.Sd.cert_proved)
    bodies

let test_hand_built_loose () =
  (* the jam-rec 5 nest: the ports are saturated at the recurrence
     bound, and the search still reaches it *)
  let g = build (jam_rec 5) in
  Alcotest.(check int) "lower bound" 5 (Sd.min_ii Sd.default_config g);
  let s, c = Sd.optimal_schedule g in
  Alcotest.(check int) "certified optimum" 5 s.Sd.s_ii;
  Alcotest.(check bool) "certified" true (c.Sd.cert_status = Sd.Exact_optimal);
  check_ok "saturated witness" g s;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool)
    "footnote reports the certified II" true
    (contains (Fmt.str "%a" Sd.pp_certificate c) "optimal II 5")

(* --- mutation: perturbing a valid schedule is caught --- *)

let test_mutation_caught () =
  (* mem-heavy 9: 10 memory ops at II 5 fill every reservation slot,
     so moving any memory op by one cycle lands in a full slot (or
     breaks a dependence / goes negative) — the checker must object *)
  let g = build (mem_heavy_body 9) in
  let s = optimal g in
  Alcotest.(check int) "port-saturated II" 5 s.Sd.s_ii;
  check_ok "baseline valid" g s;
  Array.iteri
    (fun i _ ->
      if Uas_ir.Opinfo.uses_memory_port (D.Graph.node g i).D.Graph.kind then
        List.iter
          (fun delta ->
            let times = Array.copy s.Sd.s_times in
            times.(i) <- times.(i) + delta;
            let mutated =
              { s with
                Sd.s_times = times;
                s_length = Array.fold_left max 0 times + 1 }
            in
            check_rejected
              (Printf.sprintf "node %d moved by %+d" i delta)
              g mutated)
          [ -1; 1 ])
    s.Sd.s_times

let test_tight_cycle_mutation_caught () =
  (* fg: the recurrence cycle has zero slack at II 4, so moving any
     real operator by one cycle violates a dependence *)
  let g = build fg_body in
  let s = optimal g in
  Alcotest.(check int) "tight II" 4 s.Sd.s_ii;
  Array.iteri
    (fun i n ->
      ignore n;
      match (D.Graph.node g i).D.Graph.kind with
      | Uas_ir.Opinfo.Op_binop _ ->
        List.iter
          (fun delta ->
            let times = Array.copy s.Sd.s_times in
            times.(i) <- times.(i) + delta;
            let mutated =
              { s with
                Sd.s_times = times;
                s_length = Array.fold_left max 0 times + 1 }
            in
            check_rejected
              (Printf.sprintf "cycle node %d moved by %+d" i delta)
              g mutated)
          [ -1; 1 ]
      | _ -> ())
    s.Sd.s_times

let test_negative_time_caught () =
  let g = build (mem_heavy_body 4) in
  let s = optimal g in
  let times = Array.copy s.Sd.s_times in
  times.(0) <- -1;
  check_rejected "negative issue time" g { s with Sd.s_times = times }

(* --- the effort budget degrades, deterministically and validly --- *)

let test_exact_effort_degrades () =
  (* under a tiny relaxation budget the scheduler must not spin: it
     degrades to the non-overlapped list schedule, bracketing the
     optimum, with a note *)
  let g = build (jam_rec 5) in
  let s, c = Sd.optimal_schedule ~effort:1 g in
  (match c.Sd.cert_status with
  | Sd.Exact_feasible -> ()
  | st ->
    Alcotest.failf "expected a bracketed result, got %s"
      (Sd.exact_status_name st));
  let l = Sd.list_schedule g in
  Alcotest.(check int) "fallback II = acyclic length" l.Sd.s_length s.Sd.s_ii;
  check_ok "fallback still valid" g s;
  Alcotest.(check bool) "bracket ordered" true
    (Sd.min_ii Sd.default_config g <= c.Sd.cert_proved
    && c.Sd.cert_proved <= s.Sd.s_ii);
  Alcotest.(check bool) "degradation noted" true
    (Sd.degradation_note s c <> None);
  (* with the default budget the same graph certifies, with no note *)
  let s', c' = Sd.optimal_schedule g in
  Alcotest.(check bool) "no note at default effort" true
    (Sd.degradation_note s' c' = None)

(* --- the QCheck property: scheduler invariants on random bodies --- *)

let gen_body st =
  let n_stmt = QCheck.Gen.int_range 2 10 st in
  List.init n_stmt (fun t ->
      let dst = Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st) in
      match QCheck.Gen.int_range 0 3 st with
      | 0 -> B.(dst <-- load "mem" (v "j" + int t))
      | 1 ->
        B.(dst
           <-- v (Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st)) + int t)
      | 2 ->
        B.(dst
           <-- band
                 (v (Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st)))
                 (int 255))
      | _ -> B.store "mem" B.(v "j" + int (Stdlib.( + ) 100 t)) (B.v dst))

(* both random-DFG sources: the memory-heavy bodies above and the
   inner bodies of the shared random nests *)
let gen_any_body =
  QCheck.Gen.oneof
    [ gen_body;
      QCheck.Gen.map
        (fun p -> (Helpers.nest_of p "i").Uas_analysis.Loop_nest.inner_body)
        Helpers.gen_nest_program ]

let test_qcheck_schedule_properties =
  let arb =
    QCheck.make gen_any_body ~print:(fun b ->
        String.concat "\n" (List.map Pp.stmt_to_string b))
  in
  QCheck.Test.make ~name:"optimal schedule properties (random bodies)"
    ~count:80 arb (fun body ->
      let g = build body in
      let s, c = Sd.optimal_schedule g in
      let raw, _ = Sd.optimal_schedule ~compact:false g in
      let again, c_again = Sd.optimal_schedule g in
      let list_length = (Sd.list_schedule g).Sd.s_length in
      Sd.check_schedule g s = Ok ()
      && Sd.min_ii Sd.default_config g <= s.Sd.s_ii
      && s.Sd.s_ii <= list_length
      && c.Sd.cert_status = Sd.Exact_optimal
      && c.Sd.cert_proved = s.Sd.s_ii
      (* deterministic *)
      && again = s && c_again = c
      (* the completion step keeps the II and only improves *)
      && raw.Sd.s_ii = s.Sd.s_ii
      && Sd.register_estimate g s <= Sd.register_estimate g raw
      && s.Sd.s_length <= raw.Sd.s_length)

let suite =
  [ Alcotest.test_case "checker accepts all backends" `Quick
      test_check_accepts_backends;
    Alcotest.test_case "exact certifies known bodies" `Quick
      test_exact_certifies;
    Alcotest.test_case "hand-built loose nest" `Quick test_hand_built_loose;
    Alcotest.test_case "mutation caught (ports)" `Quick test_mutation_caught;
    Alcotest.test_case "mutation caught (tight cycle)" `Quick
      test_tight_cycle_mutation_caught;
    Alcotest.test_case "negative time caught" `Quick test_negative_time_caught;
    Alcotest.test_case "exact effort degrades" `Quick
      test_exact_effort_degrades;
    QCheck_alcotest.to_alcotest test_qcheck_schedule_properties ]
