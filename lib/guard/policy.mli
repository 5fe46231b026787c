(** The assembled guard configuration for one serving run.

    Bundles deadline budgets, the retry policy, and the breaker and
    shed configs that {!Chain} applies to every query.  {!off} disables
    every guard: under [off] and [Chaos.none] the chain only runs the
    query, so a guarded batch answers exactly what a sequential loop
    would (the determinism pin of the chaos suite). *)

type t = {
  batch_budget_s : float option;
  query_budget_s : float option;
  retry : Retry.policy;
  breaker : Breaker.config option;
  shed : Shed.config option;
}

val off : t

val make :
  ?batch_budget_s:float ->
  ?query_budget_s:float ->
  ?retry:Retry.policy ->
  ?breaker:Breaker.config ->
  ?shed:Shed.config ->
  unit ->
  t
(** @raise Invalid_argument on a negative budget. *)

val serving : t
(** Production default: 3 retry attempts (0.5ms base backoff),
    default breaker and shed, no deadline — budgets are opt-in. *)

val is_off : t -> bool

val presets : batch_budget_s:float -> (string * t) list
(** off / serving / strict, for the [crt chaos] grid. *)

val preset_of_string : batch_budget_s:float -> string -> (t, string) result
