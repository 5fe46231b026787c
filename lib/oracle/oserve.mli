(** Oracle batch serving — the second query surface of the engine.

    Pushes distance/path queries through {!Cr_engine.Engine.run_custom}
    so an oracle batch gets the same static sharding, caches, guard
    chain and metrics as a routing batch.  The
    determinism contract carries over: under [Cr_guard.Policy.off],
    {!run_guarded}'s outcomes are [Ok] of {!measure} on each pair —
    bit-identical across pool widths and with caches on or off (tested
    in test/test_oracle.ml). *)

type omeasured = {
  src : int;
  dst : int;
  est : float;  (** oracle estimate *)
  dist : float;  (** true distance (ground truth) *)
  ok : bool;
      (** the reported walk is valid, ends at [dst], and its
          independently-priced weight equals [est] (1e-9 relative) *)
  hops : int;
  stretch : float;  (** [est / dist]; [1.0] for [src = dst]; [infinity] when not [ok] *)
}

val measure : Cr_graph.Apsp.t -> Path_oracle.t -> int -> int -> omeasured
(** One oracle query, answered and then refereed: the stitched walk is
    validated and priced independently by
    [Compact_routing.Simulator.check_walk].  Pure in its arguments, and
    {e canonical}: the measurement is computed on the ordered pair
    [(min src dst, max src dst)] and relabeled, so the answers for
    [(u, v)] and [(v, u)] are the same record up to the [src]/[dst]
    fields — which is what lets every serving mode share one cache
    entry per unordered pair. *)

val referee_sparse :
  Cr_graph.Apsp.t -> Sparse_oracle.t -> (int * int) array -> Cr_util.Stats.summary
(** Answers each pair with {!Sparse_oracle.path}, in order on the
    calling domain, and referees every walk as {!measure} does.
    Returns the stretch summary of the answers that pass: its [count]
    is how many passed, a pair's stretch is [1.0] when [d = 0], and it
    is {!Cr_util.Stats.empty_summary} when none pass.  The AGH oracle
    does not go through the engine, so this measures answer quality,
    not serving throughput; callers that report a rate time it. *)

val run_guarded :
  ?chaos:Cr_guard.Chaos.t ->
  omeasured Cr_engine.Engine.t ->
  Cr_graph.Apsp.t ->
  Path_oracle.t ->
  (int * int) array ->
  (omeasured, Cr_guard.Rejection.t) result array
  * Cr_engine.Engine.metrics
  * Cr_engine.Engine.guard_stats
(** The guarded path: same guard chain and rejection taxonomy as
    routed serving ({!Cr_engine.Engine.run_guarded}). *)

type report = {
  oracle_k : int;
  workload : string;  (** caller-supplied label *)
  dist : string;
  queries : int;
  domains : int;
  cache_capacity : int;
  cache_mode : string;  (** ["off" | "lane" | "shared"] *)
  guard_label : string;
  chaos_label : string;
  wall_s : float;
  queries_per_sec : float;  (** oracle queries per second *)
  latency : Cr_util.Stats.summary;
  cache_hits : int;
  cache_misses : int;
  guards : Cr_engine.Engine.guard_stats;
  ok : int;  (** valid (refereed) answers among the served queries *)
  stretch_mean : float;
  stretch_max : float;
  size_entries : int;
  storage_bits : int;
  shared : Cr_util.Ttcache.stats;
      (** shared-table counters; all-zero unless [cache_mode = "shared"].
          Oracle entries are keyed by canonical [(min, max)] pair, so
          both directions of a pair hit one entry. *)
}

val hit_rate : report -> float

val run :
  ?cache:int ->
  ?cache_mode:Cr_engine.Engine.cache_mode ->
  ?dist:Cr_engine.Workload.dist ->
  ?policy:Cr_guard.Policy.t ->
  ?chaos:Cr_guard.Chaos.t ->
  ?guard_label:string ->
  domains:int ->
  seed:int ->
  queries:int ->
  workload:string ->
  Cr_graph.Apsp.t ->
  Path_oracle.t ->
  report
(** The closed-loop oracle serve, in the {!Cr_engine.Serve.frame}
    that {!Cr_engine.Serve.run} uses: generates [queries] connected
    pairs ([dist] defaults to [Zipf 1.1]), serves them guarded on a
    fresh pool of [domains] lanes, and reports.  The query stream and
    answers depend only on [(dist, seed, queries)] — never on
    [domains], [cache] or [cache_mode]. *)

val report_to_json : report -> string
(** One strict-JSON object (single line, no trailing newline). *)
