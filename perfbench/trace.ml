(* Spans the benchmark records around its own calls into each layer of
   the compiler (nothing inside the program is instrumented).  Spans
   stay in memory; [write_chrome] writes them once, at exit, as Chrome
   trace-event JSON with one track per pool domain or client
   connection.

   Accounting model: the traced rounds are wall-clock windows.  Inside
   them every track (pool worker or client connection) is either busy
   in a top-level span or idle.  A span's self time is its duration
   minus the durations of its children, so self times plus idle time
   must add up to tracks x window wall; [summarize] gives the ratio. *)

type span = {
  id : int;
  parent : int;  (** 0 for a top-level span of its track *)
  name : string;
  label : string;  (** the cell, plan or request the span worked for *)
  track : int;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let lock = Mutex.create ()
let next_id = Atomic.make 1
let windows : (float * float) list ref = ref []
let main_domain = Domain.self ()

(* the enclosing span (id, label) of the running domain *)
let current : (int * string) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (0, ""))

let add s =
  Mutex.lock lock;
  spans := s :: !spans;
  Mutex.unlock lock

(* With a pool of two, the calling domain is worker 0 and the one
   helper domain is worker 1. *)
let domain_track () = if Domain.self () = main_domain then 0 else 1

(** Run [f] inside a span on the calling domain; nested calls become
    its children and inherit its label. *)
let with_span ?label name f =
  let parent, parent_label = Domain.DLS.get current in
  let label = Option.value label ~default:parent_label in
  let id = Atomic.fetch_and_add next_id 1 in
  let track = domain_track () in
  Domain.DLS.set current (id, label);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set current (parent, parent_label);
      add { id; parent; name; label; track; t0; t1 })
    f

(** A top-level span timed by the caller (client threads share a
    domain, so they cannot use the domain-local parent). *)
let record ~track ~label name t0 t1 =
  add { id = Atomic.fetch_and_add next_id 1; parent = 0; name; label; track;
        t0; t1 }

(** Run [f] as one traced round: its wall-clock time is a window of
    the accounting. *)
let round f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  windows := (t0, Unix.gettimeofday ()) :: !windows;
  x

(* ---- analysis ---- *)

(* total length of the intersection of two lists of disjoint intervals,
   each sorted by start *)
let rec overlap a b =
  match (a, b) with
  | [], _ | _, [] -> 0.0
  | (a0, a1) :: ar, (b0, b1) :: br ->
    let o = Float.max 0.0 (Float.min a1 b1 -. Float.max a0 b0) in
    if a1 < b1 then o +. overlap ar b else o +. overlap a br

let merge intervals =
  let sorted = List.sort compare intervals in
  List.rev
    (List.fold_left
       (fun acc (s0, s1) ->
         match acc with
         | (m0, m1) :: rest when s0 <= m1 -> (m0, Float.max m1 s1) :: rest
         | _ -> (s0, s1) :: acc)
       [] sorted)

type summary = {
  wall : float;  (** summed window wall, seconds *)
  self_by_name : (string * float) list;  (** seconds, largest first *)
  self_total : float;
  idle : float;  (** summed over tracks, seconds *)
  accounted : float;  (** (self_total + idle) / (tracks * wall) *)
}

let dur s = s.t1 -. s.t0

let summarize ~tracks =
  let spans = !spans in
  let windows = merge !windows in
  let wall = List.fold_left (fun a (t0, t1) -> a +. t1 -. t0) 0.0 windows in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  let self_total =
    List.fold_left
      (fun acc s ->
        let self =
          dur s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
        in
        Hashtbl.replace by_name s.name
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name));
        acc +. self)
      0.0 spans
  in
  let idle =
    List.fold_left
      (fun acc k ->
        let busy =
          merge
            (List.filter_map
               (fun s ->
                 if s.parent = 0 && s.track = k then Some (s.t0, s.t1) else None)
               spans)
        in
        acc +. wall -. overlap windows busy)
      0.0
      (List.init tracks Fun.id)
  in
  { wall;
    self_by_name =
      List.sort
        (fun (_, a) (_, b) -> compare b a)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []);
    self_total;
    idle;
    accounted =
      (if wall > 0.0 then (self_total +. idle) /. (float_of_int tracks *. wall)
       else 0.0) }

(** The [k] labels with the longest span named [name], as (label,
    seconds of that span). *)
let slowest ?(k = 5) name =
  List.filter (fun s -> String.equal s.name name) !spans
  |> List.sort (fun a b -> compare (dur b) (dur a))
  |> List.fold_left
       (fun acc s -> if List.mem_assoc s.label acc then acc else (s.label, dur s) :: acc)
       []
  |> List.rev
  |> List.filteri (fun i _ -> i < k)

(* ---- Chrome trace-event JSON ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome ~file ~track_name ~tracks =
  let spans = List.sort (fun a b -> compare a.t0 b.t0) !spans in
  let origin = match spans with [] -> 0.0 | s :: _ -> s.t0 in
  let us t = (t -. origin) *. 1e6 in
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for k = 0 to tracks - 1 do
    Printf.fprintf oc
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}},\n"
      k
      (json_string (track_name k))
  done;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"label\":%s}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) s.track (us s.t0) (us s.t1 -. us s.t0) s.id
        s.parent (json_string s.label))
    spans;
  output_string oc "]}\n";
  close_out oc
