(** The multicore batch query engine.

    Turns per-pair evaluation into a served workload: a query batch
    [(src, dst) array] is sharded statically across the lanes of a
    spawn-once domain pool, each shard optionally consulting a
    {!Cr_util.Ttcache} result cache and passing every query through its
    own {!Cr_guard.Chain}, while the engine records throughput and
    per-query latency on {!Cr_obs.Clock}.

    The engine is polymorphic in the per-query result type ['r].  The
    routing surface ({!run_guarded}) serves
    [Compact_routing.Simulator.measured]; {!run_custom} serves any other
    query type — the oracle layer ([Cr_oracle.Oserve]) uses it to push
    distance/path queries through the identical caches, guards and
    sharding.

    {2 Determinism contract}

    - [result.(i)] corresponds to [pairs.(i)] and is a pure function of
      [(measure, pairs.(i))] — bit-identical across any pool width and
      with the cache on or off (cached entries are the values the
      computation would produce).  The [measure] closure must read only
      immutable preprocessed tables.
    - Sharding is static (shard [l] owns one contiguous slice), so each
      per-shard cache, breaker and cost estimate has a single executor
      per batch and hit/miss totals are reproducible for a fixed
      [(pairs, domains, capacity)].  A lane crashed by pool chaos hands
      its whole shard to a survivor, which keeps the single-executor
      property — and the result array — intact.
    - Only the measured {!metrics} (wall time, latency percentiles) are
      nondeterministic.
    - Under [Cr_guard.Policy.off] and [Cr_guard.Chaos.none] the guard
      chain only runs the query: every outcome is [Ok] of exactly what a
      sequential loop computes ([Simulator.measure_all] for routes).

    Measure closures must be safe to call from several domains: every
    scheme and oracle in this repo answers from immutable preprocessed
    tables (the AGM06 live counters are atomic). *)

type 'r t
(** An engine serving queries whose per-query result type is ['r] (the
    caches hold ['r] values). *)

type cache_mode =
  | Off  (** no memoization *)
  | Lane
      (** one {!Cr_util.Ttcache} per shard — single executor per batch,
          but hot entries are duplicated and re-missed once per lane *)
  | Shared
      (** one {!Cr_util.Ttcache} shared by every lane: a hot key misses
          once per engine, not once per lane.  At pool width 1 it is the
          [Lane] table exactly.  Results are bit-identical across all
          three modes (a table only returns exact key/generation matches
          of pure per-query values). *)

val cache_mode_to_string : cache_mode -> string

val cache_mode_of_string : string -> (cache_mode, string) result
(** Parses ["off" | "lane" | "shared"] (the [--cache-mode] flag). *)

type metrics = {
  queries : int;
  domains : int;  (** pool lanes used, including the caller *)
  wall_s : float;
  routes_per_sec : float;  (** queries/s, whatever the query type *)
  latency : Cr_util.Stats.summary;  (** per-query seconds: p50/p95/p99 etc. *)
  cache_hits : int;  (** this batch, summed over shards *)
  cache_misses : int;
}

type outcome = (Compact_routing.Simulator.measured, Cr_guard.Rejection.t) result
(** One routed query's guarded verdict: a measurement, or a structured
    refusal.  Guards never raise. *)

type guard_stats = {
  ok : int;
  timed_out : int;
  shed : int;
  breaker_open : int;
  worker_lost : int;
  retries : int;  (** extra attempts consumed by bounded retry *)
  requeues : int;  (** indexes re-run by survivors after lane crashes *)
  lost_lanes : int;
  stalls : int;  (** injected stalls taken (pool + query layers) *)
}
(** Per-batch guard tally, counted from the outcome array: [ok +
    timed_out + shed + breaker_open + worker_lost = queries]. *)

val create :
  ?cache:int ->
  ?cache_mode:cache_mode ->
  ?salt:int ->
  ?policy:Cr_guard.Policy.t ->
  ?pool:Cr_util.Domain_pool.t ->
  unit ->
  'r t
(** [create ()] runs on the shared pool with the cache disabled and
    every guard off.  [cache] is the cache capacity in entries — per
    shard under [Lane], total under [Shared] ([0] disables; negative
    raises [Invalid_argument]).  [cache_mode] defaults to [Lane] when
    [cache > 0] and [Off] otherwise, preserving the historical
    behavior; [Shared] with [cache = 0] raises [Invalid_argument].
    [salt] (e.g. {!Cr_graph.Graph.hash} of the served graph) perturbs
    every table's fingerprints so equal keys of different builds spread
    differently.  [policy]
    configures the per-shard guard chains; breaker state and cost
    estimates persist across batches of the same engine, like the
    caches. *)

val cache_capacity : 'r t -> int

val cache_mode : 'r t -> cache_mode

val shared_stats : 'r t -> Cr_util.Ttcache.stats
(** Lifetime hit/miss/replace/age counters of the shared table;
    {!Cr_util.Ttcache.no_stats} in the other modes. *)

val breaker_state : 'r t -> shard:int -> Cr_guard.Breaker.state option
(** Current breaker state of one shard; [None] when breakers are off. *)

val run_custom :
  ?chaos:Cr_guard.Chaos.t ->
  ?canon:(int -> int -> int * int) ->
  ?orient:(src:int -> dst:int -> 'r -> 'r) ->
  'r t ->
  n:int ->
  placeholder:'r ->
  measure:(int -> int -> 'r) ->
  (int * int) array ->
  ('r, Cr_guard.Rejection.t) result array * metrics * guard_stats
(** The generic serving core: shard [pairs], answer each [(s, d)] with
    [orient ~src:s ~dst:d (measure (canon s d))] through the configured
    cache (keys [(cs * n) + cd] over the canonical pair, so [n] must
    exceed every node id), under the shard's guard chain with [chaos]
    injected (default [Cr_guard.Chaos.none]).

    [canon]/[orient] (both default to the identity) let symmetric
    surfaces share one cache entry per unordered pair: the oracle layer
    passes [canon = (min, max)] and an [orient] that relabels the
    answer's endpoints.  They are applied on {e every} query — hit,
    miss, and cache off — so the result array is the same pure function
    of [pairs] in every cache mode.

    [placeholder] seeds the result array and is never returned.
    Always terminates with a total outcome array — a wedged shard is
    cut off by deadlines, overload is shed, lost workers surface as
    [Worker_lost] — and never raises for any guard reason; an
    exception from [measure] is re-raised in the caller whichever lane
    hit it. *)

val run_guarded :
  ?chaos:Cr_guard.Chaos.t ->
  Compact_routing.Simulator.measured t ->
  Cr_graph.Apsp.t ->
  Compact_routing.Scheme.t ->
  (int * int) array ->
  outcome array * metrics * guard_stats
(** {!run_custom} over [Compact_routing.Simulator.measure]: routes and
    measures every query.
    @raise Compact_routing.Simulator.Invalid_walk if the scheme emits a
    malformed walk. *)

val cache_stats : 'r t -> int * int
(** Lifetime [(hits, misses)] summed over the engine's tables (one per
    shard under [Lane], the shared one under [Shared]). *)
