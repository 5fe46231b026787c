(** Closed-loop load generation over the batch engine.

    One [run] = one served workload: a deterministic query stream
    (see {!Workload}) pushed through {!Engine} on a dedicated pool of
    the requested width, reported as throughput, latency percentiles,
    cache behavior, guard outcomes and routing quality.  Shared by
    [crt serve], [crt chaos] and the [P1] bench target, so the CLI and
    the bench agree on semantics.

    Serving is guarded end-to-end: [run] takes a {!Cr_guard.Policy.t}
    and a {!Cr_guard.Chaos.t} and always terminates with a total
    outcome tally — injected crashes, stalls and overload surface as
    structured rejections in {!report.guards}, never as hangs or
    uncaught exceptions.  The defaults ([Policy.off], [Chaos.none])
    serve every query, bit-identically to a sequential loop. *)

type report = {
  scheme : string;
  workload : string;  (** caller-supplied label, e.g. ["erdos-renyi(n=1024)"] *)
  dist : string;
  queries : int;
  domains : int;
  cache_capacity : int;  (** cache entries (per lane, or shared total); 0 = disabled *)
  cache_mode : string;  (** ["off" | "lane" | "shared"] *)
  guard_label : string;  (** guard preset name; ["off"] when inactive *)
  chaos_label : string;  (** chaos plan label; ["none"] by default *)
  wall_s : float;
  routes_per_sec : float;
  latency : Cr_util.Stats.summary;  (** seconds per query *)
  cache_hits : int;
  cache_misses : int;
  guards : Engine.guard_stats;  (** ok + the four rejection kinds partition [queries] *)
  delivered : int;  (** delivered among the [ok] outcomes *)
  stretch_mean : float;  (** over served (ok) queries only *)
  stretch_p99 : float;
  shared : Cr_util.Ttcache.stats;
      (** shared-table hit/miss/replace/age counters; all-zero unless
          [cache_mode = "shared"] *)
}

val hit_rate : report -> float
(** [hits / (hits + misses)]; 0 when the cache is off. *)

val rejected : report -> int
(** Total queries refused by any guard; [report.guards.ok + rejected r
    = r.queries]. *)

type 'r frame = {
  engine : 'r Engine.t;  (** read for its cache settings and shared-table stats *)
  metrics : Engine.metrics;
  guards : Engine.guard_stats;
  served : 'r array;  (** the [Ok] outcomes, in query order *)
  guard_label : string;
      (** the given label, or ["off"] / ["custom"] derived from the
          policy when it is [""] *)
}

val frame :
  cache:int ->
  cache_mode:Engine.cache_mode option ->
  dist:Workload.dist ->
  policy:Cr_guard.Policy.t ->
  guard_label:string ->
  domains:int ->
  seed:int ->
  queries:int ->
  Cr_graph.Apsp.t ->
  ('r Engine.t ->
  (int * int) array ->
  ('r, Cr_guard.Rejection.t) result array * Engine.metrics * Engine.guard_stats) ->
  'r frame
(** The frame every closed-loop run shares, whatever its query type:
    on a fresh pool of [domains] lanes (shut down before returning,
    even on raise) it generates [queries] connected pairs, creates an
    engine salted with the graph's hash, and hands both to the serving
    function for one guarded batch.  {!run} passes
    {!Engine.run_guarded}; the oracle surface passes its own. *)

val run :
  ?cache:int ->
  ?cache_mode:Engine.cache_mode ->
  ?dist:Workload.dist ->
  ?policy:Cr_guard.Policy.t ->
  ?chaos:Cr_guard.Chaos.t ->
  ?guard_label:string ->
  domains:int ->
  seed:int ->
  queries:int ->
  workload:string ->
  Cr_graph.Apsp.t ->
  Compact_routing.Scheme.t ->
  report
(** Generates [queries] connected pairs ([dist] defaults to
    [Zipf 1.1]), serves them through the guarded engine on a fresh
    pool of [domains] lanes (shut down before returning, even on
    raise), and reports.  The query stream and the routing results
    depend only on [(dist, seed, queries)] — never on [domains],
    [cache] or [cache_mode]; only the measured throughput/latency do.  [guard_label]
    overrides the preset name recorded in the report (by default
    ["off"] or ["custom"] is derived from [policy]). *)

val report_to_json : report -> string
(** One machine-readable JSON object (single line, no trailing
    newline); latencies in microseconds.  Carries the full guard
    outcome tally. *)
