(* Scheduling (§3.5, §6): computes the initiation interval and issue
   times that the hardware estimator reports.

   - [list_schedule]: resource-constrained acyclic scheduling of one
     iteration (the *original*, non-overlapped execution: the next
     iteration starts only when the current one finishes, so II equals
     the schedule length);
   - [optimal_schedule]: the modulo scheduler for pipelined execution —
     a budgeted branch-and-bound over the modulo reservation table that
     proves candidate IIs infeasible or returns a witness, so the first
     feasible II is certified optimal; [compact_registers] then
     shortens value lifetimes without touching the II or the
     reservation table.  An exhausted budget degrades to the list
     schedule;
   - [check_schedule]: the validity checker every schedule (and the
     test suites) must pass, written directly from the constraint
     system rather than from either scheduler. *)

open Uas_ir

type config = {
  mem_ports : int;  (** memory references allowed per clock (§6.1: 2) *)
}

let default_config = { mem_ports = 2 }

type schedule = {
  s_ii : int;             (** initiation interval in cycles *)
  s_times : int array;    (** issue cycle of every node *)
  s_length : int;         (** makespan of one iteration *)
}

let resource_mii (cfg : config) (g : Graph.t) : int =
  let mems = Graph.memory_op_count g in
  if mems = 0 then 1 else (mems + cfg.mem_ports - 1) / cfg.mem_ports

(** Lower bound on the pipelined II: recurrence- and resource-
    constrained. *)
let min_ii (cfg : config) (g : Graph.t) : int =
  max 1 (max (Graph.recurrence_mii g) (resource_mii cfg g))

let makespan (g : Graph.t) (times : int array) : int =
  let len = ref 0 in
  Array.iteri (fun i t -> len := max !len (t + Graph.delay g i)) times;
  max 1 !len

(** Resource-constrained list schedule of one iteration, honoring only
    intra-iteration (distance-0) edges.  Memory operations respect the
    port limit per absolute cycle. *)
let list_schedule ?(cfg = default_config) (g : Graph.t) : schedule =
  let n = Graph.node_count g in
  let times = Array.make n 0 in
  let order = Graph.topo_order g in
  let mem_use : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun i ->
      let ready =
        List.fold_left
          (fun t (p, dist) ->
            if dist = 0 then max t (times.(p) + Graph.delay g p) else t)
          0 g.Graph.preds.(i)
      in
      let needs_port = Opinfo.uses_memory_port (Graph.node g i).kind in
      let rec place t =
        if needs_port then begin
          let used = Option.value ~default:0 (Hashtbl.find_opt mem_use t) in
          if used >= cfg.mem_ports then place (t + 1)
          else begin
            Hashtbl.replace mem_use t (used + 1);
            t
          end
        end
        else t
      in
      times.(i) <- place ready)
    order;
  let length = makespan g times in
  { s_ii = length; s_times = times; s_length = length }

(* ---- the validity checker (shared post-condition) ---- *)

(** Verify a schedule against the raw constraint system — every
    dependence edge with its distance×II slack and every modulo
    reservation row — independently of how it was produced.  A
    non-pipelined list schedule passes the same check: its II equals
    its makespan, so rows coincide with absolute cycles and
    cross-iteration edges are trivially slack. *)
let check_schedule ?(cfg = default_config) (g : Graph.t) (s : schedule) :
    (unit, string list) result =
  let n = Graph.node_count g in
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun m -> errs := m :: !errs) fmt in
  if Array.length s.s_times <> n then
    err "times array has %d entries for %d nodes" (Array.length s.s_times) n
  else begin
    if s.s_ii < 1 then err "initiation interval %d < 1" s.s_ii;
    Array.iteri
      (fun i t -> if t < 0 then err "node %d issues at negative cycle %d" i t)
      s.s_times;
    List.iter
      (fun e ->
        let slack =
          s.s_times.(e.Graph.e_dst) - s.s_times.(e.Graph.e_src)
          - Graph.delay g e.Graph.e_src
          + (s.s_ii * e.Graph.e_distance)
        in
        if slack < 0 then
          err "dependence %d -> %d (distance %d) violated by %d cycle(s)"
            e.Graph.e_src e.Graph.e_dst e.Graph.e_distance (-slack))
      g.Graph.edges;
    if s.s_ii >= 1 then begin
      let rows = Array.make s.s_ii 0 in
      Array.iteri
        (fun i t ->
          if Opinfo.uses_memory_port (Graph.node g i).kind then begin
            let r = ((t mod s.s_ii) + s.s_ii) mod s.s_ii in
            rows.(r) <- rows.(r) + 1
          end)
        s.s_times;
      Array.iteri
        (fun r used ->
          if used > cfg.mem_ports then
            err "modulo row %d holds %d memory ops (ports: %d)" r used
              cfg.mem_ports)
        rows
    end;
    let len = makespan g s.s_times in
    if s.s_length <> len then
      err "recorded makespan %d but issue times span %d" s.s_length len
  end;
  match List.rev !errs with [] -> Ok () | es -> Error es

(* ---- the longest-path solver ---- *)

exception Out_of_effort

exception Blocked

(* Raise [t] in place to the least fixpoint of t(dst) >= t(src) + w at
   or above its starting values, revisiting what [seeds] reach.
   Queue-based Bellman-Ford with round sentinels: nodes still active
   after [max_rounds] rounds mean a positive cycle (the II is
   infeasible) — the fixpoint is unique, so this computes exactly what
   a pass-based relaxation would, only incrementally.  Returns [false]
   on positive cycle.  Every edge relaxation costs one unit of
   [effort]; exhausting the budget raises {!Out_of_effort}. *)
let relax_up ~effort ~max_rounds (adj : (int * int) list array)
    (t : int array) (seeds : int list) : bool =
  let q = Queue.create () in
  let inq = Array.make (Array.length t) false in
  List.iter
    (fun i ->
      if not inq.(i) then begin
        Queue.add i q;
        inq.(i) <- true
      end)
    seeds;
  Queue.add (-1) q;
  let rounds = ref 0 in
  try
    while Queue.length q > 1 do
      let i = Queue.pop q in
      if i = -1 then begin
        incr rounds;
        if !rounds > max_rounds then raise Blocked;
        Queue.add (-1) q
      end
      else begin
        inq.(i) <- false;
        let ti = t.(i) in
        List.iter
          (fun (j, w) ->
            decr effort;
            if !effort < 0 then raise Out_of_effort;
            if ti + w > t.(j) then begin
              t.(j) <- ti + w;
              if not inq.(j) then begin
                Queue.add j q;
                inq.(j) <- true
              end
            end)
          adj.(i)
      end
    done;
    true
  with Blocked -> false

(* Weighted successor / predecessor adjacency at a fixed II: the edge
   src -> dst of distance d contributes t(dst) >= t(src) + delay(src)
   - II*d. *)
let succ_adj (g : Graph.t) ~ii =
  let adj = Array.make (Graph.node_count g) [] in
  List.iter
    (fun e ->
      let w = Graph.delay g e.Graph.e_src - (ii * e.Graph.e_distance) in
      adj.(e.Graph.e_src) <- (e.Graph.e_dst, w) :: adj.(e.Graph.e_src))
    g.Graph.edges;
  adj

let mem_nodes_of (g : Graph.t) : int list =
  List.filter
    (fun i -> Opinfo.uses_memory_port (Graph.node g i).kind)
    (List.init (Graph.node_count g) (fun i -> i))

(* ---- the exact backend ---- *)

type exact_status = Exact_optimal | Exact_feasible

let exact_status_name = function
  | Exact_optimal -> "optimal"
  | Exact_feasible -> "feasible"

type certificate = {
  cert_status : exact_status;
  cert_proved : int;
  cert_expansions : int;
}

(* ceil(a / b) for b > 0 and either sign of a *)
let cdiv a b = if a > 0 then (a + b - 1) / b else -(-a / b)

let neg_inf = min_int / 4

(* Symmetry breaking for the exact search: unroll-and-jam produces
   disjoint, schedule-isomorphic copies of the loop body, and any
   solution can permute whole copies, so the canonical solution orders
   the copies' first memory residues.  Two connected components are
   schedule-isomorphic when, under the order-preserving node map, every
   position has the same delay and port usage and both have the same
   positioned edge set (labels and constants may differ — they do not
   affect validity).  Returns [prev]: for each memory node (by memory
   index), the memory index whose residue must stay <= its own, or -1. *)
let symmetry_chain (g : Graph.t) (mem : int array) (mem_idx : int array) :
    int array =
  let n = Graph.node_count g in
  let m = Array.length mem in
  let parent = Array.init n Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  List.iter
    (fun e ->
      let rx = find e.Graph.e_src and ry = find e.Graph.e_dst in
      if rx <> ry then
        if rx < ry then parent.(ry) <- rx else parent.(rx) <- ry)
    g.Graph.edges;
  let comp_nodes : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = find v in
    let tl = Option.value ~default:[] (Hashtbl.find_opt comp_nodes r) in
    Hashtbl.replace comp_nodes r (v :: tl)
  done;
  let comp_edges : (int, (int * int * int) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let pos_of : (int, int) Hashtbl.t = Hashtbl.create n in
  Hashtbl.iter
    (fun _ vs -> List.iteri (fun p v -> Hashtbl.replace pos_of v p) vs)
    comp_nodes;
  List.iter
    (fun e ->
      let r = find e.Graph.e_src in
      let tup =
        ( Hashtbl.find pos_of e.Graph.e_src,
          Hashtbl.find pos_of e.Graph.e_dst,
          e.Graph.e_distance )
      in
      let tl = Option.value ~default:[] (Hashtbl.find_opt comp_edges r) in
      Hashtbl.replace comp_edges r (tup :: tl))
    g.Graph.edges;
  (* signature -> leaders (first memory node of each copy), in node
     order so the chain is deterministic *)
  let signature vs root =
    ( List.map
        (fun v ->
          (Graph.delay g v, Opinfo.uses_memory_port (Graph.node g v).kind))
        vs,
      List.sort compare
        (Option.value ~default:[] (Hashtbl.find_opt comp_edges root)) )
  in
  let groups = ref [] in
  let roots =
    List.sort compare (Hashtbl.fold (fun r _ acc -> r :: acc) comp_nodes [])
  in
  List.iter
    (fun root ->
      let vs = Hashtbl.find comp_nodes root in
      match List.find_opt (fun v -> mem_idx.(v) >= 0) vs with
      | None -> ()
      | Some leader ->
        let sg = signature vs root in
        let rec add = function
          | [] -> groups := !groups @ [ (sg, ref [ leader ]) ]
          | (sg', leaders) :: rest ->
            if sg = sg' then leaders := leader :: !leaders else add rest
        in
        add !groups)
    roots;
  let prev = Array.make m (-1) in
  List.iter
    (fun (_, leaders) ->
      let chain = List.rev !leaders in
      ignore
        (List.fold_left
           (fun before v ->
             (match before with
             | Some b -> prev.(mem_idx.(v)) <- mem_idx.(b)
             | None -> ());
             Some v)
           None chain))
    !groups;
  prev

(* Decide one candidate II exactly, in residue space.

   A modulo schedule is determined by the residues (mod II) of the
   memory nodes — the only resource-constrained ones: write their times
   as t(a) = r(a) + II*k(a) and every non-memory node takes the least
   fixpoint over its predecessors.  Let L(a,b) be the longest walk from
   memory node a to memory node b whose intermediates are all
   non-memory (finite because every cycle has non-positive gain at
   II >= RecMII; walks through a third memory node c compose
   transitively through c's own constraint, which is tighter).  Then a
   schedule with residues r exists iff the pure difference system

       k(b) - k(a) >= ceil((L(a,b) + r(a) - r(b)) / II)

   has a solution, decided by Bellman-Ford positive-cycle detection
   over the memory nodes alone — no time horizon and no slow climb
   toward one.  The branch-and-bound assigns residues one memory node
   at a time (most-coupled-to-assigned first, earliest-issue residue
   first), pruning on reservation-row capacity, a pigeonhole count, and
   infeasibility of the partial k-system (sound: it relaxes unassigned
   nodes to unconstrained).  Exhausting the tree without a witness is a
   proof that the II is infeasible. *)
let decide (cfg : config) (g : Graph.t) ~effort ~expansions ~ii =
  let n = Graph.node_count g in
  let mem = Array.of_list (mem_nodes_of g) in
  let m = Array.length mem in
  let mem_idx = Array.make n (-1) in
  Array.iteri (fun a i -> mem_idx.(i) <- a) mem;
  let adj = succ_adj g ~ii in
  let all_nodes = List.init n Fun.id in
  let asap = Array.make n 0 in
  let round_up t r = t + ((((r - t) mod ii) + ii) mod ii) in
  (* a positive cycle at this II is infeasible outright *)
  if not (relax_up ~effort ~max_rounds:(n + 1) adj asap all_nodes) then
    `Infeasible
  else begin
    (* L.(a).(b): longest memory-free walk between memory endpoints.
       One bounded Bellman-Ford per source; walks never relax out of a
       memory node, so intermediates stay non-memory. *)
    let l = Array.make_matrix m m neg_inf in
    Array.iteri
      (fun a s ->
        let d = Array.make n neg_inf in
        let q = Queue.create () in
        let inq = Array.make n false in
        let arrive v x =
          decr effort;
          if !effort < 0 then raise Out_of_effort;
          let b = mem_idx.(v) in
          if b >= 0 then begin
            if x > l.(a).(b) then l.(a).(b) <- x
          end
          else if x > d.(v) then begin
            d.(v) <- x;
            if not inq.(v) then begin
              Queue.add v q;
              inq.(v) <- true
            end
          end
        in
        List.iter (fun (v, w) -> arrive v w) adj.(s);
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          inq.(u) <- false;
          let du = d.(u) in
          List.iter (fun (v, w) -> arrive v (du + w)) adj.(u)
        done)
      mem;
    (* max-plus transitive closure over the memory nodes (walks through
       any intermediates): the tightest pairwise bounds, with
       t(b) - t(a) >= C(a,b) in every schedule.  A pair bounded from
       both sides with negative total slack kills the II outright. *)
    let c = Array.map Array.copy l in
    for v = 0 to m - 1 do
      for a = 0 to m - 1 do
        effort := !effort - m;
        if !effort < 0 then raise Out_of_effort;
        let row_a = c.(a) in
        if row_a.(v) > neg_inf then begin
          let cav = row_a.(v) and row_v = c.(v) in
          for b = 0 to m - 1 do
            if row_v.(b) > neg_inf && cav + row_v.(b) > row_a.(b) then
              row_a.(b) <- cav + row_v.(b)
          done
        end
      done
    done;
    let impossible = ref false in
    for a = 0 to m - 1 do
      for b = 0 to m - 1 do
        if
          c.(a).(b) > neg_inf
          && c.(b).(a) > neg_inf
          && c.(a).(b) + c.(b).(a) > 0
        then impossible := true
      done
    done;
    if !impossible then `Infeasible
    else begin
      begin
        let sym_prev = symmetry_chain g mem mem_idx in
        let sym_next = Array.make m (-1) in
        Array.iteri
          (fun a p -> if p >= 0 then sym_next.(p) <- a)
          sym_prev;
        let residue = Array.make m (-1) in
        let row_load = Array.make ii 0 in
        let k = Array.make m 0 in
        (* a pair is TIGHT when it is bounded from both sides with a
           window narrower than the II — only tight pairs restrict
           residues, so only they drive the fail-first variable choice:
           nodes with one-sided constraints (pure sources/sinks) can
           take any free reservation row and are placed last, where the
           pigeonhole bound makes them trivial *)
        let tight = Array.make_matrix m m false in
        for a = 0 to m - 1 do
          for b = 0 to m - 1 do
            if
              a <> b
              && c.(a).(b) > neg_inf
              && c.(b).(a) > neg_inf
              && -c.(b).(a) - c.(a).(b) < ii - 1
            then tight.(a).(b) <- true
          done
        done;
        let degree = Array.make m 0 in
        for a = 0 to m - 1 do
          for b = 0 to m - 1 do
            if tight.(a).(b) then degree.(a) <- degree.(a) + 1
          done
        done;
        let coupled = Array.make m 0 in
        let touch v delta =
          for u = 0 to m - 1 do
            if tight.(v).(u) then coupled.(u) <- coupled.(u) + delta
          done
        in
        (* incremental Bellman-Ford over the assigned k-system; round
           sentinel m+1 detects a positive cycle (dead branch) *)
        let relax_k seed =
          let q = Queue.create () in
          let inq = Array.make m false in
          Queue.add seed q;
          inq.(seed) <- true;
          Queue.add (-1) q;
          let rounds = ref 0 in
          try
            while Queue.length q > 1 do
              let a = Queue.pop q in
              if a = -1 then begin
                incr rounds;
                if !rounds > m + 1 then raise Blocked;
                Queue.add (-1) q
              end
              else begin
                inq.(a) <- false;
                let ka = k.(a) and ra = residue.(a) in
                for b = 0 to m - 1 do
                  decr effort;
                  if !effort < 0 then raise Out_of_effort;
                  if residue.(b) >= 0 && c.(a).(b) > neg_inf then begin
                    let cand = ka + cdiv (c.(a).(b) + ra - residue.(b)) ii in
                    if cand > k.(b) then begin
                      k.(b) <- cand;
                      if not inq.(b) then begin
                        Queue.add b q;
                        inq.(b) <- true
                      end
                    end
                  end
                done
              end
            done;
            true
          with Blocked -> false
        in
        (* witness from a full assignment: anchor the memory nodes at
           r + II*k (shifted up by whole IIs until every anchor clears
           its zero-source ASAP bound), give everything else its least
           fixpoint, and insist the independent checker accepts it *)
        let complete () =
          let shift = ref 0 in
          for a = 0 to m - 1 do
            let anchor = residue.(a) + (ii * k.(a)) in
            let need = cdiv (asap.(mem.(a)) - anchor) ii in
            if need > !shift then shift := need
          done;
          let t = Array.make n 0 in
          for a = 0 to m - 1 do
            t.(mem.(a)) <- residue.(a) + (ii * (k.(a) + !shift))
          done;
          if not (relax_up ~effort ~max_rounds:(n + 1) adj t all_nodes) then
            None
          else begin
            let s = { s_ii = ii; s_times = t; s_length = makespan g t } in
            (* a failure here would be a solver bug: abandon the branch
               rather than emit an invalid certificate *)
            match check_schedule ~cfg g s with Ok () -> Some s | Error _ -> None
          end
        in
        (* earliest issue time still open to unassigned node a, judged
           from the zero-source ASAP bound and the assigned anchors —
           used only to order residue trials, never to prune *)
        let earliest a =
          let lb = ref asap.(mem.(a)) in
          for b = 0 to m - 1 do
            if residue.(b) >= 0 && c.(b).(a) > neg_inf then begin
              let tb = residue.(b) + (ii * k.(b)) in
              if tb + c.(b).(a) > !lb then lb := tb + c.(b).(a)
            end
          done;
          !lb
        in
        let rec branch unassigned =
          if unassigned = 0 then complete ()
          else begin
            let free = ref 0 in
            Array.iter
              (fun load -> free := !free + max 0 (cfg.mem_ports - load))
              row_load;
            if !free < unassigned then None
            else begin
              (* branch on the node most coupled to the assigned set
                 (fail-first); ties by static degree, then index *)
              let a = ref (-1) in
              for u = m - 1 downto 0 do
                if
                  residue.(u) < 0
                  && (!a < 0
                     || coupled.(u) > coupled.(!a)
                     || (coupled.(u) = coupled.(!a)
                        && degree.(u) > degree.(!a)))
                then a := u
              done;
              let a = !a in
              (* a residue survives when its reservation row has space,
                 it respects the canonical copy order, and for every
                 assigned node sharing a two-sided difference window
                 narrower than the II, it lands inside that window *)
              let viable r =
                row_load.(r) < cfg.mem_ports
                && (sym_prev.(a) < 0
                   || residue.(sym_prev.(a)) < 0
                   || residue.(sym_prev.(a)) <= r)
                && (sym_next.(a) < 0
                   || residue.(sym_next.(a)) < 0
                   || r <= residue.(sym_next.(a)))
                &&
                let ok = ref true in
                for b = 0 to m - 1 do
                  if !ok && residue.(b) >= 0 && tight.(b).(a) then begin
                    let lo = c.(b).(a) in
                    let width = -c.(a).(b) - lo in
                    let rel =
                      (((r - residue.(b) - lo) mod ii) + ii) mod ii
                    in
                    if rel > width then ok := false
                  end
                done;
                !ok
              in
              effort := !effort - (ii * m);
              if !effort < 0 then raise Out_of_effort;
              let lb = earliest a in
              let dom =
                List.init ii (fun r -> r)
                |> List.filter viable
                |> List.sort (fun r1 r2 ->
                       compare (round_up lb r1) (round_up lb r2))
              in
              let saved_k = Array.copy k in
              let rec try_residues = function
                | [] -> None
                | r :: rest -> (
                  incr expansions;
                  residue.(a) <- r;
                  row_load.(r) <- row_load.(r) + 1;
                  touch a 1;
                  (* seed k(a) from its assigned predecessors, then
                     propagate *)
                  let ka = ref 0 in
                  for b = 0 to m - 1 do
                    if residue.(b) >= 0 && b <> a && c.(b).(a) > neg_inf
                    then begin
                      let x = k.(b) + cdiv (c.(b).(a) + residue.(b) - r) ii in
                      if x > !ka then ka := x
                    end
                  done;
                  k.(a) <- !ka;
                  let result =
                    if relax_k a then branch (unassigned - 1) else None
                  in
                  match result with
                  | Some _ -> result
                  | None ->
                    residue.(a) <- -1;
                    row_load.(r) <- row_load.(r) - 1;
                    touch a (-1);
                    Array.blit saved_k 0 k 0 m;
                    try_residues rest)
              in
              try_residues dom
            end
          end
        in
        match branch m with Some s -> `Feasible s | None -> `Infeasible
      end
    end
  end


(* ---- registers and the register-aware completion ---- *)

(* Registers node [i] needs under issue times [t] at [ii]: the
   per-node term of {!register_estimate}. *)
let node_registers (g : Graph.t) ~ii (t : int array) i =
  let produced_at = t.(i) + Graph.delay g i in
  let last_use =
    List.fold_left
      (fun m (d, dist) -> max m (t.(d) + (ii * dist)))
      produced_at g.Graph.succs.(i)
  in
  let lifetime = last_use - produced_at in
  (* zero-lifetime values are consumed combinationally (no register);
     stored values need floor(lifetime/II) + 1 — floor plus one, not
     ceiling: when the lifetime is an exact multiple of the II, the
     next iteration's result arrives on the very edge of the last read
     and a further buffer register is required (found by the
     cycle-accurate simulator's hazard check) *)
  let windows = if lifetime = 0 then 0 else (lifetime / ii) + 1 in
  match (Graph.node g i).kind with
  | Opinfo.Op_move ->
    (* a move IS a register write: at least one register, more when
       the value stays live across several initiation windows *)
    max 1 windows
  | Opinfo.Op_const -> 0
  | _ ->
    (* a computed value needs one register per II-window it stays
       live; a value consumed the cycle it appears needs none *)
    if g.Graph.succs.(i) <> [] then windows else 0

(** Number of hardware registers implied by a schedule: one per register
    source / move node, plus, for every produced value, the number of
    II-wide windows its lifetime spans (modulo variable expansion: a
    value alive for more than one II needs a new register per in-flight
    iteration). *)
let register_estimate (g : Graph.t) (s : schedule) : int =
  let regs = ref 0 in
  for i = 0 to Graph.node_count g - 1 do
    regs := !regs + node_registers g ~ii:s.s_ii s.s_times i
  done;
  !regs

(* The register-aware completion step.  [decide] anchors every memory
   node at r + II*k and gives every other node its least fixpoint, so
   values are computed as early as possible and then wait, in
   registers, for late consumers.  This local search keeps the II and
   every memory residue (hence the reservation table) and moves one
   node at a time: a non-memory node by single cycles, a memory node by
   whole IIs, never outside [0, makespan - delay] and never across a
   dependence.  A node moves to the reachable time that minimises the
   registers of the node and its producers (the only terms of
   {!register_estimate} that depend on its issue time), the earliest on
   ties, and only when that is strictly fewer than where it is — so
   every move lowers the total and the search terminates.  The result
   is re-checked; a failed check (a bug) keeps the input schedule. *)
let compact_registers ?(cfg = default_config) (g : Graph.t) (s : schedule) :
    schedule =
  let n = Graph.node_count g in
  let ii = s.s_ii in
  let t = Array.copy s.s_times in
  let producers =
    Array.init n (fun v ->
        List.sort_uniq compare
          (List.filter_map
             (fun (p, _) -> if p <> v then Some p else None)
             g.Graph.preds.(v)))
  in
  let local v =
    List.fold_left
      (fun acc p -> acc + node_registers g ~ii t p)
      (node_registers g ~ii t v) producers.(v)
  in
  let moved = ref true in
  while !moved do
    moved := false;
    for v = 0 to n - 1 do
      let d = Graph.delay g v in
      let lo = ref 0 and hi = ref (s.s_length - d) in
      List.iter
        (fun (p, dist) ->
          if p <> v then lo := max !lo (t.(p) + Graph.delay g p - (ii * dist)))
        g.Graph.preds.(v);
      List.iter
        (fun (q, dist) ->
          if q <> v then hi := min !hi (t.(q) - d + (ii * dist)))
        g.Graph.succs.(v);
      let step =
        if Opinfo.uses_memory_port (Graph.node g v).kind then ii else 1
      in
      let t0 = t.(v) in
      let best = ref (local v) and best_t = ref t0 in
      let tau = ref (t0 - (step * ((t0 - !lo) / step))) in
      while !tau <= !hi do
        if !tau <> t0 then begin
          t.(v) <- !tau;
          let c = local v in
          if c < !best then begin
            best := c;
            best_t := !tau
          end
        end;
        tau := !tau + step
      done;
      t.(v) <- !best_t;
      if !best_t <> t0 then moved := true
    done
  done;
  let s' = { s_ii = ii; s_times = t; s_length = makespan g t } in
  match check_schedule ~cfg g s' with Ok () -> s' | Error _ -> s

(* The shared relaxation budget of one II search, sized so every paper
   cell certifies in well under a second; a graph that would burn
   seconds degrades to the list schedule instead. *)
let default_exact_effort = 80_000_000

(** The modulo scheduler: iterate the candidate II upward from
    [min_ii], proving each infeasible or returning a witness, so the
    first feasible II is certified optimal; the witness then goes
    through {!compact_registers} unless [compact] is false.  The list
    schedule is a valid modulo schedule at II = its length, so the
    search stops there at the latest.  When the [effort] budget (edge
    relaxations, deterministic) runs out first, the list schedule is
    returned uncompacted with an [Exact_feasible] certificate. *)
let optimal_schedule ?(cfg = default_config) ?(effort = default_exact_effort)
    ?(compact = true) (g : Graph.t) : schedule * certificate =
  let lower = min_ii cfg g in
  let expansions = ref 0 in
  let cert status proved =
    { cert_status = status;
      cert_proved = proved;
      cert_expansions = !expansions }
  in
  if Graph.node_count g = 0 then
    ({ s_ii = 1; s_times = [||]; s_length = 1 }, cert Exact_optimal 1)
  else begin
    let fallback = list_schedule ~cfg g in
    let fuel = ref effort in
    let finish ii s =
      let s = if compact then compact_registers ~cfg g s else s in
      (s, cert Exact_optimal ii)
    in
    let rec search ii =
      if ii >= fallback.s_length then finish ii fallback
      else
        match decide cfg g ~effort:fuel ~expansions ~ii with
        | `Feasible s -> finish ii s
        | `Infeasible -> search (ii + 1)
        | exception Out_of_effort -> (fallback, cert Exact_feasible ii)
    in
    search lower
  end

let degradation_note (s : schedule) (c : certificate) : string option =
  match c.cert_status with
  | Exact_optimal -> None
  | Exact_feasible ->
    Some
      (Printf.sprintf
         "modulo scheduling effort budget exhausted at II=%d; degraded to \
          the non-overlapped schedule (II=%d)"
         c.cert_proved s.s_ii)

(* ---- reporting ---- *)

type exact_mode = Exact_off | Exact_report

let exact_mode_name = function Exact_off -> "off" | Exact_report -> "report"

let exact_mode_of_string = function
  | "off" -> Some Exact_off
  | "report" -> Some Exact_report
  | _ -> None

let pp_certificate ppf c =
  match c.cert_status with
  | Exact_optimal ->
    Fmt.pf ppf "optimal II %d (certified, %d expansions)" c.cert_proved
      c.cert_expansions
  | Exact_feasible ->
    Fmt.pf ppf
      "II >= %d, not certified (effort budget exhausted, %d expansions)"
      c.cert_proved c.cert_expansions

let pp_schedule ppf s =
  Fmt.pf ppf "II=%d length=%d" s.s_ii s.s_length

(* ---- serialization (the artifact store's stable forms) ----

   Hand-rolled, versioned, all-integer formats: the leading tag pins
   the schema (bump it on any field change — the store then treats old
   entries as undecodable, which is a miss, never a wrong answer), and
   parsing returns [None] on any malformed input. *)

let ( let* ) = Option.bind

let exact_status_of_name = function
  | "optimal" -> Some Exact_optimal
  | "feasible" -> Some Exact_feasible
  | _ -> None

(* the value of a "name:value" field *)
let field ~name s =
  let prefix = name ^ ":" in
  let np = String.length prefix in
  if String.length s >= np && String.equal (String.sub s 0 np) prefix then
    Some (String.sub s np (String.length s - np))
  else None

let schedule_to_string s =
  Printf.sprintf "sched 1 ii:%d;len:%d;times:%s" s.s_ii s.s_length
    (String.concat "," (List.map string_of_int (Array.to_list s.s_times)))

let schedule_of_string str =
  match String.split_on_char ' ' str with
  | [ "sched"; "1"; atom ] -> (
    match String.split_on_char ';' atom with
    | [ ii_f; len_f; times_f ] ->
      let* ii = Option.bind (field ~name:"ii" ii_f) int_of_string_opt in
      let* len = Option.bind (field ~name:"len" len_f) int_of_string_opt in
      let* times_s = field ~name:"times" times_f in
      let parts =
        if String.equal times_s "" then []
        else String.split_on_char ',' times_s
      in
      let times = List.map int_of_string_opt parts in
      if List.exists Option.is_none times then None
      else
        Some
          { s_ii = ii;
            s_length = len;
            s_times = Array.of_list (List.map Option.get times) }
    | _ -> None)
  | _ -> None

(* positional, to keep one entry per schedule small *)
let certificate_to_string c =
  Printf.sprintf "cert 1 %s %d %d"
    (exact_status_name c.cert_status)
    c.cert_proved c.cert_expansions

let certificate_of_string str =
  match String.split_on_char ' ' str with
  | [ "cert"; "1"; status; proved; expansions ] ->
    let* cert_status = exact_status_of_name status in
    let* cert_proved = int_of_string_opt proved in
    let* cert_expansions = int_of_string_opt expansions in
    Some { cert_status; cert_proved; cert_expansions }
  | _ -> None
