(** Deterministic chaos plans for the serving stack.

    A plan is pure data in [Fault_plan]'s style: every injected fault
    is drawn from a splitmix64 stream seeded by the plan, so a fixed
    seed reproduces the same fault pattern.  Two layers compose:

    - {e pool} faults (lane crashes/stalls) are delegated to
      {!Cr_util.Domain_pool.chaos} and kill or delay a shard's
      executor;
    - {e query} faults are keyed by query index — independent of lanes
      and interleaving — and model a worker crashing mid-query
      (transient for [fail_attempts] attempts, so bounded retry can
      save it) or an injected latency spike that deadlines must cut
      off. *)

type t

val none : t
(** No injection anywhere: with [none] the guard chain never stalls
    or fails a query. *)

val plan :
  ?label:string ->
  ?crash_rate:float ->
  ?stall_rate:float ->
  ?stall_s:float ->
  ?fail_rate:float ->
  ?fail_attempts:int ->
  ?qstall_rate:float ->
  ?qstall_s:float ->
  seed:int ->
  unit ->
  t
(** [crash_rate]/[stall_rate]/[stall_s] configure the pool layer;
    [fail_rate]/[fail_attempts] the transient query crashes;
    [qstall_rate]/[qstall_s] the query latency spikes.  All rates in
    [\[0, 1\]]; [fail_attempts >= 1].
    @raise Invalid_argument outside those ranges. *)

val label : t -> string

val is_none : t -> bool

val pool_chaos : t -> Cr_util.Domain_pool.chaos option
(** The pool-layer plan to hand to [parallel_for_stats]. *)

val query_fails : t -> q:int -> int
(** Leading attempts of query [q] the injected fault consumes (0 =
    untouched).  Pure in [(plan, q)]. *)

val query_stall_s : t -> q:int -> float
(** Injected latency spike for query [q] (0 = none).  Pure in
    [(plan, q)]. *)

val presets : seed:int -> (string * t) list
(** Named intensities for sweeps: none, crash, stall, flaky, storm. *)

val preset_of_string : seed:int -> string -> (t, string) result
