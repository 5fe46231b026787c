(* Closed-loop load generation: generate a deterministic workload, push
   it through the engine at full speed, and report throughput, latency
   percentiles, cache behavior and routing quality in one record.
   Shared by the [crt serve] subcommand, the [crt chaos] sweeps and the
   P1 bench target; [frame] is also the oracle surface's (Oserve.run).

   Runs are guarded end-to-end: the engine's guarded path threads the
   Cr_guard stack (deadlines, retry, breaker, shed) through every
   shard, and the report carries the structured outcome tally.  The
   default Policy.off + Chaos.none run serves every query and reports
   the routing quality of the sequential Simulator.measure_all
   (bit-identical results; see Engine's determinism contract). *)

module Pool = Cr_util.Domain_pool
module Stats = Cr_util.Stats
module Jsonl = Cr_util.Jsonl
module Guard = Cr_guard
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Sim = Compact_routing.Simulator
module Scheme = Compact_routing.Scheme

type report = {
  scheme : string;
  workload : string;
  dist : string;
  queries : int;
  domains : int;
  cache_capacity : int;
  cache_mode : string; (* off | lane | shared *)
  guard_label : string; (* "off" when no guard is active *)
  chaos_label : string; (* Chaos plan label, "none" by default *)
  wall_s : float;
  routes_per_sec : float;
  latency : Stats.summary; (* seconds per query *)
  cache_hits : int;
  cache_misses : int;
  guards : Engine.guard_stats; (* ok + rejections partition queries *)
  delivered : int; (* delivered among the ok outcomes *)
  stretch_mean : float;
  stretch_p99 : float;
  shared : Cr_util.Ttcache.stats; (* all-zero unless cache_mode = shared *)
}

let hit_rate r = Stats.ratio r.cache_hits (r.cache_hits + r.cache_misses)

let rejected r =
  r.guards.Engine.timed_out + r.guards.Engine.shed + r.guards.Engine.breaker_open
  + r.guards.Engine.worker_lost

type 'r frame = {
  engine : 'r Engine.t;
  metrics : Engine.metrics;
  guards : Engine.guard_stats;
  served : 'r array; (* the ok outcomes, in query order *)
  guard_label : string;
}

let frame ~cache ~cache_mode ~dist ~policy ~guard_label ~domains ~seed ~queries apsp serve =
  let pool = Pool.create ~domains in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let g = Apsp.graph apsp in
      let pairs =
        Workload.generate ~pool ~connected_in:apsp dist ~seed ~n:(Graph.n g) ~count:queries
      in
      let engine = Engine.create ~cache ?cache_mode ~salt:(Graph.hash g) ~policy ~pool () in
      let outcomes, metrics, guards = serve engine pairs in
      {
        engine;
        metrics;
        guards;
        (* quality is judged on the served queries only; the rejected
           ones are accounted for in [guards], whose [ok] counts the
           served ones *)
        served =
          (let q = ref (-1) in
           let rec next () =
             incr q;
             match outcomes.(!q) with Ok r -> r | Error _ -> next ()
           in
           Array.init guards.Engine.ok (fun _ -> next ()));
        guard_label =
          (if guard_label <> "" then guard_label
           else if Guard.Policy.is_off policy then "off"
           else "custom");
      })

let run ?(cache = 0) ?cache_mode ?(dist = Workload.Zipf 1.1) ?(policy = Guard.Policy.off)
    ?(chaos = Guard.Chaos.none) ?(guard_label = "") ~domains ~seed ~queries ~workload apsp
    scheme =
  let f =
    frame ~cache ~cache_mode ~dist ~policy ~guard_label ~domains ~seed ~queries apsp
      (fun engine pairs -> Engine.run_guarded ~chaos engine apsp scheme pairs)
  in
  let m = f.metrics and agg = Sim.aggregate_of_measured f.served in
  {
    scheme = scheme.Scheme.name;
    workload;
    dist = Workload.dist_to_string dist;
    queries = m.Engine.queries;
    domains = m.Engine.domains;
    cache_capacity = Engine.cache_capacity f.engine;
    cache_mode = Engine.cache_mode_to_string (Engine.cache_mode f.engine);
    guard_label = f.guard_label;
    chaos_label = Guard.Chaos.label chaos;
    wall_s = m.Engine.wall_s;
    routes_per_sec = m.Engine.routes_per_sec;
    latency = m.Engine.latency;
    cache_hits = m.Engine.cache_hits;
    cache_misses = m.Engine.cache_misses;
    guards = f.guards;
    delivered = agg.Sim.delivered;
    stretch_mean = agg.Sim.stretch_stats.Stats.mean;
    stretch_p99 = agg.Sim.stretch_stats.Stats.p99;
    shared = Engine.shared_stats f.engine;
  }

let report_to_json r =
  Jsonl.obj
    [
      ("scheme", Jsonl.str r.scheme);
      ("workload", Jsonl.str r.workload);
      ("dist", Jsonl.str r.dist);
      ("queries", Jsonl.int r.queries);
      ("domains", Jsonl.int r.domains);
      ("cache", Jsonl.int r.cache_capacity);
      ("cache_mode", Jsonl.str r.cache_mode);
      ("guards", Jsonl.str r.guard_label);
      ("chaos", Jsonl.str r.chaos_label);
      ("wall_s", Jsonl.float r.wall_s);
      ("routes_per_sec", Jsonl.float r.routes_per_sec);
      ("latency_p50_us", Jsonl.float (1e6 *. r.latency.Stats.p50));
      ("latency_p95_us", Jsonl.float (1e6 *. r.latency.Stats.p95));
      ("latency_p99_us", Jsonl.float (1e6 *. r.latency.Stats.p99));
      ("cache_hits", Jsonl.int r.cache_hits);
      ("cache_misses", Jsonl.int r.cache_misses);
      ("hit_rate", Jsonl.float (hit_rate r));
      ("shared_hits", Jsonl.int r.shared.Cr_util.Ttcache.hits);
      ("shared_misses", Jsonl.int r.shared.Cr_util.Ttcache.misses);
      ("shared_replaced", Jsonl.int r.shared.Cr_util.Ttcache.replaced);
      ("shared_aged", Jsonl.int r.shared.Cr_util.Ttcache.aged);
      ("ok", Jsonl.int r.guards.Engine.ok);
      ("timed_out", Jsonl.int r.guards.Engine.timed_out);
      ("shed", Jsonl.int r.guards.Engine.shed);
      ("breaker_open", Jsonl.int r.guards.Engine.breaker_open);
      ("worker_lost", Jsonl.int r.guards.Engine.worker_lost);
      ("retries", Jsonl.int r.guards.Engine.retries);
      ("requeues", Jsonl.int r.guards.Engine.requeues);
      ("lost_lanes", Jsonl.int r.guards.Engine.lost_lanes);
      ("stalls", Jsonl.int r.guards.Engine.stalls);
      ("delivered", Jsonl.int r.delivered);
      ("stretch_mean", Jsonl.float r.stretch_mean);
      ("stretch_p99", Jsonl.float r.stretch_p99);
    ]
