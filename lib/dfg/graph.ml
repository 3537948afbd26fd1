(* The data-flow graph (Figure 4.1): nodes are datapath operations,
   edges carry the dependence distance in iterations — 0 for
   intra-iteration flow, k >= 1 for loop-carried dependences
   ("backedges" in the paper's terminology, drawn from the bottom of the
   graph back to the registers at the top). *)

open Uas_ir

type node = {
  id : int;
  kind : Opinfo.op_kind;
  label : string;  (** defined SSA name, or a description of the op *)
}

type edge = {
  e_src : int;
  e_dst : int;
  e_distance : int;  (** iterations: 0 = same iteration, >=1 = carried *)
}

type t = {
  nodes : node array;
  edges : edge list;
  succs : (int * int) list array;  (** per node: (dst, distance) *)
  preds : (int * int) list array;  (** per node: (src, distance) *)
  delay_of : Opinfo.op_kind -> int;
}

let node_count g = Array.length g.nodes
let node g i = g.nodes.(i)
let delay g i = g.delay_of g.nodes.(i).kind

let create ?(delay_of = Opinfo.default_delay) (nodes : node list)
    (edges : edge list) : t =
  let nodes = Array.of_list nodes in
  Array.iteri
    (fun i n ->
      if n.id <> i then Types.ir_error "node %d has id %d" i n.id)
    nodes;
  let n = Array.length nodes in
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun e ->
      if e.e_src < 0 || e.e_src >= n || e.e_dst < 0 || e.e_dst >= n then
        Types.ir_error "edge %d->%d out of range" e.e_src e.e_dst;
      if e.e_distance < 0 then
        Types.ir_error "edge %d->%d has negative distance" e.e_src e.e_dst;
      succs.(e.e_src) <- (e.e_dst, e.e_distance) :: succs.(e.e_src);
      preds.(e.e_dst) <- (e.e_src, e.e_distance) :: preds.(e.e_dst))
    edges;
  { nodes; edges; succs; preds; delay_of }

(** Real datapath operators (excludes moves/constants). *)
let operator_nodes g =
  Array.to_list g.nodes |> List.filter (fun n -> Opinfo.is_real_operator n.kind)

let operator_count g = List.length (operator_nodes g)

let memory_op_count g =
  Array.to_list g.nodes
  |> List.filter (fun n -> Opinfo.uses_memory_port n.kind)
  |> List.length

let total_operator_area ?(area_of = Opinfo.default_area) g =
  List.fold_left (fun a n -> a + area_of n.kind) 0 (Array.to_list g.nodes)

(** Topological order of the distance-0 subgraph.
    @raise Ir_error if the intra-iteration subgraph has a cycle (a
    malformed DFG: SSA bodies are always acyclic within an iteration). *)
let topo_order (g : t) : int list =
  let n = node_count g in
  let indeg = Array.make n 0 in
  Array.iteri
    (fun _i succs ->
      List.iter (fun (d, dist) -> if dist = 0 then indeg.(d) <- indeg.(d) + 1) succs)
    g.succs;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr seen;
    order := i :: !order;
    List.iter
      (fun (d, dist) ->
        if dist = 0 then begin
          indeg.(d) <- indeg.(d) - 1;
          if indeg.(d) = 0 then Queue.add d queue
        end)
      g.succs.(i)
  done;
  if !seen <> n then Types.ir_error "intra-iteration DFG has a cycle";
  List.rev !order

(** Length of the longest intra-iteration path, in cycles: the delay of
    the critical path through one iteration. *)
let critical_path (g : t) : int =
  let order = topo_order g in
  let finish = Array.make (node_count g) 0 in
  List.iter
    (fun i ->
      let start =
        List.fold_left
          (fun m (s, dist) -> if dist = 0 then max m finish.(s) else m)
          0 g.preds.(i)
      in
      finish.(i) <- start + delay g i)
    order;
  Array.fold_left max 0 finish

(* Strongly connected components (Tarjan, iterative): [comp.(i)] is
   the component of node [i]. *)
let components (g : t) : int array =
  let n = node_count g in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and comp = Array.make n (-1) in
  let stack = ref [] and next = ref 0 and ncomp = ref 0 in
  let visit root =
    (* explicit DFS frames: node and its successors still to scan *)
    let frames = ref [ (root, g.succs.(root)) ] in
    let enter v =
      index.(v) <- !next;
      low.(v) <- !next;
      incr next;
      stack := v :: !stack;
      on_stack.(v) <- true
    in
    enter root;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, (w, _) :: rest) :: up ->
        frames := (v, rest) :: up;
        if index.(w) < 0 then begin
          enter w;
          frames := (w, g.succs.(w)) :: !frames
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
      | (v, []) :: up ->
        frames := up;
        (match up with
        | (u, _) :: _ -> low.(u) <- min low.(u) low.(v)
        | [] -> ());
        if low.(v) = index.(v) then begin
          let rec pop () =
            match !stack with
            | w :: tl ->
              stack := tl;
              on_stack.(w) <- false;
              comp.(w) <- !ncomp;
              if w <> v then pop ()
            | [] -> ()
          in
          pop ();
          incr ncomp
        end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  comp

(** Total delay around the heaviest recurrence per unit distance:
    max over cycles C of ceil(delay(C) / distance(C)).  0 when the graph
    has no recurrence.  Every cycle lies inside one strongly connected
    component, so each component is searched on its own edges: binary
    search on II, where II is feasible iff the component with edge
    weights delay(src) - II*distance has no positive-weight cycle
    (Bellman-Ford). *)
let recurrence_mii (g : t) : int =
  let comp = components g in
  let inner = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let c = comp.(e.e_src) in
      if c = comp.(e.e_dst) then
        Hashtbl.replace inner c
          (e :: Option.value ~default:[] (Hashtbl.find_opt inner c)))
    g.edges;
  let dist = Array.make (node_count g) 0 in
  let size = Array.make (node_count g) 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
  let component_mii c edges =
    let has_positive_cycle ii =
      (* Bellman-Ford longest-path from a virtual source: simple paths
         have at most size-1 edges, so if the values still change after
         size+1 relaxation passes, a positive-weight cycle exists *)
      List.iter (fun e -> dist.(e.e_src) <- 0; dist.(e.e_dst) <- 0) edges;
      let pass () =
        List.fold_left
          (fun changed e ->
            let w = delay g e.e_src - (ii * e.e_distance) in
            if dist.(e.e_src) + w > dist.(e.e_dst) then begin
              dist.(e.e_dst) <- dist.(e.e_src) + w;
              true
            end
            else changed)
          false edges
      in
      let rec go k =
        if not (pass ()) then false else k > size.(c) || go (k + 1)
      in
      go 0
    in
    let max_ii =
      List.fold_left (fun a e -> a + max 1 (delay g e.e_src)) 1 edges
    in
    if not (has_positive_cycle 0) then 0
    else begin
      (* smallest ii in [1, max_ii] without a positive cycle *)
      let lo = ref 1 and hi = ref max_ii in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if has_positive_cycle mid then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  Hashtbl.fold (fun c edges acc -> max acc (component_mii c edges)) inner 0

let pp ppf (g : t) =
  Fmt.pf ppf "dfg: %d nodes, %d edges@\n" (node_count g) (List.length g.edges);
  Array.iter
    (fun nd ->
      Fmt.pf ppf "  n%d [%s] %s -> %a@\n" nd.id
        (Opinfo.op_kind_name nd.kind)
        nd.label
        Fmt.(list ~sep:(any ", ") (fun ppf (d, k) ->
                 if k = 0 then Fmt.pf ppf "n%d" d else Fmt.pf ppf "n%d(+%d)" d k))
        g.succs.(nd.id))
    g.nodes
