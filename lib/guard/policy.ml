(* The assembled guard configuration the guard chain applies to every
   query: budgets, retry, breaker and shed knobs in one record.  [off]
   disables everything — under [off] (and no chaos) the chain only runs
   the query, which is the determinism pin the chaos suite enforces. *)

type t = {
  batch_budget_s : float option; (* deadline for the whole batch *)
  query_budget_s : float option; (* deadline for one query *)
  retry : Retry.policy;
  breaker : Breaker.config option;
  shed : Shed.config option;
}

let off =
  { batch_budget_s = None; query_budget_s = None; retry = Retry.none; breaker = None; shed = None }

let make ?batch_budget_s ?query_budget_s ?(retry = Retry.none) ?breaker ?shed () =
  (match batch_budget_s with
  | Some b when not (b >= 0.0) -> invalid_arg "Policy.make: negative batch budget"
  | _ -> ());
  (match query_budget_s with
  | Some b when not (b >= 0.0) -> invalid_arg "Policy.make: negative query budget"
  | _ -> ());
  { batch_budget_s; query_budget_s; retry; breaker; shed }

(* serving default: absorb transient faults, isolate failing shards,
   keep no deadline (callers opt into budgets explicitly) *)
let serving =
  make
    ~retry:(Retry.make ~max_attempts:3 ~base_s:0.0005 ())
    ~breaker:Breaker.default_config ~shed:Shed.default_config ()

(* strict: tight budgets on top of the serving guards, for sweeps that
   exercise shedding and timeouts under overload *)
let strict ~batch_budget_s =
  make ~batch_budget_s ~query_budget_s:(batch_budget_s /. 10.0)
    ~retry:(Retry.make ~max_attempts:2 ~base_s:0.0002 ())
    ~breaker:Breaker.default_config
    ~shed:(Shed.make_config ~headroom:2.0 ()) ()

let is_off p = p = off

let presets ~batch_budget_s =
  [ ("off", off); ("serving", serving); ("strict", strict ~batch_budget_s) ]

let preset_of_string ~batch_budget_s name =
  match List.assoc_opt name (presets ~batch_budget_s) with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown guard preset %S (expected off, serving, strict)" name)
