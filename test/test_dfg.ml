(* The DFG substrate: graph construction from loop bodies, backedges,
   memory disambiguation, recurrence/resource bounds, list and modulo
   scheduling, and stage partitioning. *)

open Uas_ir
module D = Uas_dfg
module B = Builder

let fg_body =
  [ B.("b" <-- band (v "a" + int 3) (int 255));
    B.("a" <-- bxor (v "b" + v "b") (int 21)) ]

(* --- graph building --- *)

let test_build_fg () =
  let g, ssa = D.Build.build fg_body in
  ignore ssa;
  (* operators: +, &, +, ^ = 4 real operators *)
  Alcotest.(check int) "operators" 4 (D.Graph.operator_count g);
  Alcotest.(check int) "no memory ops" 0 (D.Graph.memory_op_count g);
  (* the a -> b -> a recurrence must appear as a cycle *)
  Alcotest.(check bool) "has recurrence" true (D.Graph.recurrence_mii g > 0)

let test_recurrence_mii_value () =
  let g, _ = D.Build.build fg_body in
  (* cycle: + (1) & (1) + (1) ^ (1) over distance 1 -> RecMII = 4 *)
  Alcotest.(check int) "RecMII" 4 (D.Graph.recurrence_mii g)

let test_no_recurrence_when_independent () =
  let body =
    [ B.("x" <-- load "a" (v "j"));
      B.("y" <-- v "x" * v "x");
      B.store "b" (B.v "j") (B.v "y") ]
  in
  let g, _ = D.Build.build ~inner_index:"j" body in
  Alcotest.(check int) "RecMII 0" 0 (D.Graph.recurrence_mii g);
  Alcotest.(check int) "two memory ops" 2 (D.Graph.memory_op_count g)

let test_memory_disambiguation () =
  (* load w[j] / store w[j]: same element, same iteration — ordered,
     but NOT a cross-iteration recurrence *)
  let body =
    [ B.("x" <-- load "w" (v "j"));
      B.("x" <-- v "x" + int 1);
      B.store "w" (B.v "j") (B.v "x") ]
  in
  let g, _ = D.Build.build ~inner_index:"j" body in
  Alcotest.(check int) "no recurrence across j" 0 (D.Graph.recurrence_mii g);
  (* without the index the accesses must be treated conservatively *)
  let g2, _ = D.Build.build body in
  Alcotest.(check bool) "conservative without index" true
    (D.Graph.recurrence_mii g2 > 0)

let test_true_memory_recurrence () =
  (* store w[j] read back as w[j-1] next iteration: distance-1 memory
     recurrence that must be found *)
  let body =
    [ B.("x" <-- load "w" (v "j" - int 1));
      B.("x" <-- v "x" + int 1);
      B.store "w" (B.v "j") (B.v "x") ]
  in
  let g, _ = D.Build.build ~inner_index:"j" body in
  Alcotest.(check bool) "memory recurrence" true (D.Graph.recurrence_mii g > 0)

let test_critical_path () =
  let g, _ = D.Build.build fg_body in
  (* chain of four 1-cycle ALU ops *)
  Alcotest.(check int) "critical path" 4 (D.Graph.critical_path g)

let test_topo_rejects_cycles () =
  let nodes =
    [ { D.Graph.id = 0; kind = Uas_ir.Opinfo.Op_binop Types.Add; label = "a" };
      { D.Graph.id = 1; kind = Uas_ir.Opinfo.Op_binop Types.Add; label = "b" } ]
  in
  let edges =
    [ { D.Graph.e_src = 0; e_dst = 1; e_distance = 0 };
      { D.Graph.e_src = 1; e_dst = 0; e_distance = 0 } ]
  in
  let g = D.Graph.create nodes edges in
  match D.Graph.topo_order g with
  | exception Types.Ir_error _ -> ()
  | _ -> Alcotest.fail "expected cycle error"

(* --- scheduling --- *)

(* every schedule a backend produces must pass the shared validity
   checker (the exact oracle's post-condition) *)
let assert_valid name g s =
  match D.Sched.check_schedule g s with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "%s: %s" name (String.concat "; " msgs)

let mem_heavy_body k =
  List.init k (fun t ->
      B.(Printf.sprintf "x%d" t <-- load "a" (v "j" + int t)))
  @ [ B.store "o" (B.v "j")
        (List.fold_left
           (fun acc t -> B.(acc + v (Printf.sprintf "x%d" t)))
           (B.int 0)
           (List.init k (fun t -> t))) ]

let test_res_mii () =
  let g, _ = D.Build.build ~inner_index:"j" (mem_heavy_body 6) in
  (* 6 loads + 1 store = 7 memory ops; 2 ports -> ResMII 4 *)
  Alcotest.(check int) "mem ops" 7 (D.Graph.memory_op_count g);
  Alcotest.(check int) "ResMII"
    4
    (D.Sched.resource_mii D.Sched.default_config g);
  let s = fst (D.Sched.optimal_schedule g) in
  Alcotest.(check int) "II = ResMII" 4 s.D.Sched.s_ii;
  assert_valid "res-mii schedule" g s

let test_modulo_port_capacity () =
  (* in any modulo schedule, no slot may exceed the port count *)
  let g, _ = D.Build.build ~inner_index:"j" (mem_heavy_body 9) in
  let s = fst (D.Sched.optimal_schedule g) in
  assert_valid "port-capacity schedule" g s;
  let slots = Array.make s.D.Sched.s_ii 0 in
  Array.iteri
    (fun i t ->
      if Uas_ir.Opinfo.uses_memory_port (D.Graph.node g i).D.Graph.kind then
        slots.(t mod s.D.Sched.s_ii) <- slots.(t mod s.D.Sched.s_ii) + 1)
    s.D.Sched.s_times;
  Array.iteri
    (fun k used ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d within capacity" k)
        true (used <= 2))
    slots

let test_modulo_respects_dependences () =
  let g, _ = D.Build.build fg_body in
  let s = fst (D.Sched.optimal_schedule g) in
  assert_valid "fg modulo schedule" g s;
  List.iter
    (fun e ->
      Alcotest.(check bool) "edge satisfied" true
        (s.D.Sched.s_times.(e.D.Graph.e_dst)
         >= s.D.Sched.s_times.(e.D.Graph.e_src)
            + D.Graph.delay g e.D.Graph.e_src
            - (s.D.Sched.s_ii * e.D.Graph.e_distance)))
    g.D.Graph.edges

let test_list_schedule_length () =
  let g, _ = D.Build.build fg_body in
  let s = D.Sched.list_schedule g in
  Alcotest.(check int) "length = critical path" 4 s.D.Sched.s_length

let test_pipelined_never_slower () =
  List.iter
    (fun body ->
      let g, _ = D.Build.build ~inner_index:"j" body in
      let l = D.Sched.list_schedule g in
      let m = fst (D.Sched.optimal_schedule g) in
      assert_valid "list schedule" g l;
      assert_valid "modulo schedule" g m;
      Alcotest.(check bool) "II <= list length" true
        (m.D.Sched.s_ii <= l.D.Sched.s_length))
    [ fg_body; mem_heavy_body 4; mem_heavy_body 8 ]

let test_qcheck_modulo_sound =
  (* random straight-line bodies: the modulo schedule satisfies all
     dependence constraints and the memory reservation table *)
  let gen_body st =
    let n_stmt = QCheck.Gen.int_range 2 10 st in
    List.init n_stmt (fun t ->
        let dst = Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st) in
        match QCheck.Gen.int_range 0 3 st with
        | 0 -> B.(dst <-- load "mem" (v "j" + int t))
        | 1 ->
          B.(dst
             <-- v (Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st))
                 + int t)
        | 2 ->
          B.(dst
             <-- band
                   (v (Printf.sprintf "v%d" (QCheck.Gen.int_range 0 4 st)))
                   (int 255))
        | _ -> B.store "mem" B.(v "j" + int (Stdlib.( + ) 100 t)) (B.v dst))
  in
  let arb =
    QCheck.make gen_body ~print:(fun b ->
        String.concat "\n" (List.map Pp.stmt_to_string b))
  in
  QCheck.Test.make ~name:"modulo schedule soundness (random bodies)" ~count:100
    arb
    (fun body ->
      let g, _ = D.Build.build ~inner_index:"j" body in
      let s = fst (D.Sched.optimal_schedule g) in
      let deps_ok =
        List.for_all
          (fun e ->
            s.D.Sched.s_times.(e.D.Graph.e_dst)
            >= s.D.Sched.s_times.(e.D.Graph.e_src)
               + D.Graph.delay g e.D.Graph.e_src
               - (s.D.Sched.s_ii * e.D.Graph.e_distance))
          g.D.Graph.edges
      in
      let slots = Array.make s.D.Sched.s_ii 0 in
      Array.iteri
        (fun i t ->
          if Uas_ir.Opinfo.uses_memory_port (D.Graph.node g i).D.Graph.kind
          then slots.(t mod s.D.Sched.s_ii) <- slots.(t mod s.D.Sched.s_ii) + 1)
        s.D.Sched.s_times;
      deps_ok
      && Array.for_all (fun u -> u <= 2) slots
      (* and the shared validity checker agrees with the manual checks *)
      && D.Sched.check_schedule g s = Ok ())

(* --- stage partitioning --- *)

let test_partition_covers () =
  let body = mem_heavy_body 5 in
  List.iter
    (fun stages ->
      let slices = D.Stage.partition ~stages body in
      Alcotest.(check int) "slice count" stages (List.length slices);
      Alcotest.(check bool) "concat = body" true
        (Stmt.equal_list body (List.concat slices)))
    [ 1; 2; 3; 4; 6; 10 ]

let test_partition_balances () =
  (* equal-cost statements split evenly *)
  let body =
    List.init 8 (fun t -> B.(Printf.sprintf "y%d" t <-- v "x" + int t))
  in
  let slices = D.Stage.partition ~stages:4 body in
  List.iter
    (fun slice -> Alcotest.(check int) "2 per stage" 2 (List.length slice))
    slices

let test_partition_optimal_max () =
  (* costs 3,1,1,3 into 2 stages: best max is 4 = (3,1 | 1,3), not 5 *)
  let mk cost name =
    (* chain [cost] unit-delay adds in one statement *)
    let rec chain k = if k = 0 then B.v "x" else B.(chain (Stdlib.( - ) k 1) + int 1) in
    B.(name <-- chain cost)
  in
  let body = [ mk 3 "p"; mk 1 "q"; mk 1 "r"; mk 3 "s" ] in
  let slices = D.Stage.partition ~stages:2 body in
  let costs = D.Stage.stage_costs slices in
  Alcotest.(check int) "balanced max" 4 (List.fold_left max 0 costs)

let test_empty_stages_allowed () =
  let body = [ B.("x" <-- v "x" + int 1) ] in
  let slices = D.Stage.partition ~stages:4 body in
  Alcotest.(check int) "4 slices" 4 (List.length slices);
  Alcotest.(check bool) "content preserved" true
    (Stmt.equal_list body (List.concat slices))

let suite =
  [ Alcotest.test_case "build fg" `Quick test_build_fg;
    Alcotest.test_case "RecMII value" `Quick test_recurrence_mii_value;
    Alcotest.test_case "independent body" `Quick
      test_no_recurrence_when_independent;
    Alcotest.test_case "memory disambiguation" `Quick
      test_memory_disambiguation;
    Alcotest.test_case "true memory recurrence" `Quick
      test_true_memory_recurrence;
    Alcotest.test_case "critical path" `Quick test_critical_path;
    Alcotest.test_case "topo rejects cycles" `Quick test_topo_rejects_cycles;
    Alcotest.test_case "ResMII" `Quick test_res_mii;
    Alcotest.test_case "modulo port capacity" `Quick
      test_modulo_port_capacity;
    Alcotest.test_case "modulo respects dependences" `Quick
      test_modulo_respects_dependences;
    Alcotest.test_case "list schedule length" `Quick
      test_list_schedule_length;
    Alcotest.test_case "pipelined never slower" `Quick
      test_pipelined_never_slower;
    QCheck_alcotest.to_alcotest test_qcheck_modulo_sound;
    Alcotest.test_case "partition covers" `Quick test_partition_covers;
    Alcotest.test_case "partition balances" `Quick test_partition_balances;
    Alcotest.test_case "partition optimal max" `Quick
      test_partition_optimal_max;
    Alcotest.test_case "empty stages" `Quick test_empty_stages_allowed ]
