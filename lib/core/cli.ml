module Fast_interp = Uas_ir.Fast_interp
module Sched = Uas_dfg.Sched

type options = {
  o_jobs : int option;
  o_timings : bool;
  o_interp : Fast_interp.tier option;
  o_json : string option;
  o_validate : bool;
  o_exact : Sched.exact_mode;
  o_task_timeout : float option;
  o_retries : int option;
  o_fault : string option;
  o_cache : string option;
  o_cache_verify : bool;
  o_cache_warm : bool;
  o_version : bool;
  o_targets : string list;
}

let parse ~available args =
  let rec go acc = function
    | [] -> Ok { acc with o_targets = List.rev acc.o_targets }
    | "--timings" :: rest -> go { acc with o_timings = true } rest
    | ("-j" | "--jobs") :: rest -> (
      match rest with
      | n :: rest' -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> go { acc with o_jobs = Some n } rest'
        | Some _ | None ->
          Error (Printf.sprintf "-j expects a positive integer, got %s" n))
      | [] -> Error "-j expects a positive integer")
    | "--interp" :: rest -> (
      match rest with
      | t :: rest' -> (
        match Fast_interp.tier_of_string t with
        | Some tier -> go { acc with o_interp = Some tier } rest'
        | None ->
          Error
            (Printf.sprintf "--interp expects %s, got %s"
               Fast_interp.valid_tiers t))
      | [] -> Error ("--interp expects " ^ Fast_interp.valid_tiers))
    | "--json" :: rest -> (
      match rest with
      | f :: rest' -> go { acc with o_json = Some f } rest'
      | [] -> Error "--json expects a file name")
    | "--validate" :: rest -> (
      match rest with
      | "off" :: rest' -> go { acc with o_validate = false } rest'
      | "probe" :: rest' -> go { acc with o_validate = true } rest'
      | m :: _ -> Error (Printf.sprintf "--validate expects off or probe, got %s" m)
      | [] -> Error "--validate expects off or probe")
    | "--exact-ii" :: rest -> (
      match rest with
      | m :: rest' -> (
        match Sched.exact_mode_of_string m with
        | Some mode -> go { acc with o_exact = mode } rest'
        | None ->
          Error
            (Printf.sprintf "--exact-ii expects off or report, got %s"
               m))
      | [] -> Error "--exact-ii expects off or report")
    | "--task-timeout" :: rest -> (
      (* shared validator (Uas_runtime.Budget): same ranges and the
         same diagnostic as nimblec and nimbled *)
      match rest with
      | s :: rest' -> (
        match Uas_runtime.Budget.timeout_of_string ~flag:"--task-timeout" s with
        | Ok t -> go { acc with o_task_timeout = Some t } rest'
        | Error m -> Error m)
      | [] ->
        Error
          (Printf.sprintf "--task-timeout expects %s"
             Uas_runtime.Budget.timeout_range))
    | "--retries" :: rest -> (
      match rest with
      | n :: rest' -> (
        match Uas_runtime.Budget.retries_of_string ~flag:"--retries" n with
        | Ok n -> go { acc with o_retries = Some n } rest'
        | Error m -> Error m)
      | [] ->
        Error
          (Printf.sprintf "--retries expects %s"
             Uas_runtime.Budget.retries_range))
    | "--fault" :: rest -> (
      match rest with
      | p :: rest' -> go { acc with o_fault = Some p } rest'
      | [] -> Error "--fault expects a fault plan (site[=label]:kind:nth,...)")
    | "--cache" :: rest -> (
      match rest with
      | d :: rest' -> go { acc with o_cache = Some d } rest'
      | [] -> Error "--cache expects a directory")
    | "--cache-verify" :: rest -> go { acc with o_cache_verify = true } rest
    | "--cache-warm" :: rest -> go { acc with o_cache_warm = true } rest
    | "--version" :: rest -> go { acc with o_version = true } rest
    | arg :: rest ->
      if List.mem arg available then
        go { acc with o_targets = arg :: acc.o_targets } rest
      else
        Error
          (Printf.sprintf "unknown target %s; available: %s" arg
             (String.concat " " available))
  in
  go
    { o_jobs = None;
      o_timings = false;
      o_interp = None;
      o_json = None;
      o_validate = false;
      o_exact = Sched.Exact_off;
      o_task_timeout = None;
      o_retries = None;
      o_fault = None;
      o_cache = None;
      o_cache_verify = false;
      o_cache_warm = false;
      o_version = false;
      o_targets = [] }
    args
