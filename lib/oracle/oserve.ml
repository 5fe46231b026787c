(* Oracle batch serving: the second query surface through the engine.
   An oracle query batch is sharded, cached and guarded exactly like a
   routing batch — Engine.run_custom with an oracle measure closure —
   so the determinism contract carries over verbatim: under Policy.off
   the outcomes are Ok of a pure function of (apsp, oracle, pairs),
   bit-identical across pool widths and with the caches on or off. *)

module Stats = Cr_util.Stats
module Jsonl = Cr_util.Jsonl
module Guard = Cr_guard
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Sim = Compact_routing.Simulator
module Engine = Cr_engine.Engine
module Workload = Cr_engine.Workload
module Serve = Cr_engine.Serve

type omeasured = {
  src : int;
  dst : int;
  est : float;
  dist : float;
  ok : bool;
  hops : int;
  stretch : float;
}

let placeholder =
  { src = 0; dst = 0; est = infinity; dist = infinity; ok = false; hops = 0;
    stretch = infinity }

(* A walk is priced independently by Simulator.check_walk; the two tree
   halves of the estimate are Dijkstra sums, so re-pricing edge-by-edge
   can differ by association — hence the relative tolerance. *)
let cost_tol = 1e-9

(* Answers are canonicalized: the measurement is computed on the
   ordered pair (min, max) — matching Path_oracle.path's own internal
   canonical direction — and only the endpoint labels are flipped back.
   That makes measure (and with it every cached or uncached serving
   mode) a function of the unordered pair up to relabeling: one shared
   cache entry per pair, and bit-identical answers whichever direction
   asked first.  Without it, re-pricing the reversed walk and reading
   the transposed APSP entry could differ in final ulps at the 1e-9
   referee tolerance. *)
let canon s d = if s <= d then (s, d) else (d, s)

let orient ~src ~dst m = if m.src = src then m else { m with src; dst }

(* A reported walk passes the referee when it is valid, ends at its
   destination and re-prices to the estimate within [cost_tol]. *)
let priced_ok (chk : Sim.checked) ~est =
  Sim.is_delivered chk.Sim.outcome
  && abs_float (chk.Sim.checked_cost -. est) <= cost_tol *. Float.max 1.0 est

let measure_canonical apsp oracle src dst =
  let g = Apsp.graph apsp in
  let d = Apsp.distance apsp src dst in
  if src = dst then { src; dst; est = 0.0; dist = 0.0; ok = true; hops = 0; stretch = 1.0 }
  else
    match Path_oracle.path oracle src dst with
    | None ->
        { src; dst; est = infinity; dist = d; ok = false; hops = 0; stretch = infinity }
    | Some a ->
        let est = a.Path_oracle.est in
        let chk = Sim.check_walk g ~src ~dst ~delivered:true a.Path_oracle.walk in
        {
          src;
          dst;
          est;
          dist = d;
          ok = priced_ok chk ~est;
          hops = chk.Sim.checked_hops;
          stretch = Sim.stretch ~delivered:true ~cost:est d;
        }

let measure apsp oracle src dst =
  let cs, cd = canon src dst in
  orient ~src ~dst (measure_canonical apsp oracle cs cd)

let referee_sparse apsp so pairs =
  let g = Apsp.graph apsp in
  let stretches =
    List.filter_map
      (fun (u, v) ->
        match Sparse_oracle.path so u v with
        | Some { Sparse_oracle.est; walk; _ }
          when priced_ok (Sim.check_walk g ~src:u ~dst:v ~delivered:true walk) ~est ->
            Some (Sim.stretch ~delivered:true ~cost:est (Apsp.distance apsp u v))
        | _ -> None)
      (Array.to_list pairs)
  in
  if stretches = [] then Stats.empty_summary else Stats.summarize (Array.of_list stretches)

let run_guarded ?chaos engine apsp oracle pairs =
  Engine.run_custom ?chaos engine ~n:(Graph.n (Apsp.graph apsp)) ~placeholder ~canon ~orient
    ~measure:(fun s d -> measure_canonical apsp oracle s d)
    pairs

type report = {
  oracle_k : int;
  workload : string;
  dist : string;
  queries : int;
  domains : int;
  cache_capacity : int;
  cache_mode : string;
  guard_label : string;
  chaos_label : string;
  wall_s : float;
  queries_per_sec : float;
  latency : Stats.summary;
  cache_hits : int;
  cache_misses : int;
  guards : Engine.guard_stats;
  ok : int; (* valid answers among the served queries *)
  stretch_mean : float;
  stretch_max : float;
  size_entries : int;
  storage_bits : int;
  shared : Cr_util.Ttcache.stats; (* all-zero unless cache_mode = shared *)
}

let hit_rate r = Stats.ratio r.cache_hits (r.cache_hits + r.cache_misses)

let run ?(cache = 0) ?cache_mode ?(dist = Workload.Zipf 1.1) ?(policy = Guard.Policy.off)
    ?(chaos = Guard.Chaos.none) ?(guard_label = "") ~domains ~seed ~queries ~workload apsp
    oracle =
  let f =
    Serve.frame ~cache ~cache_mode ~dist ~policy ~guard_label ~domains ~seed ~queries apsp
      (fun engine pairs -> run_guarded ~chaos engine apsp oracle pairs)
  in
  let m = f.Serve.metrics in
  let stretches =
    let served = f.Serve.served in
    let ok = Array.fold_left (fun c (r : omeasured) -> if r.ok then c + 1 else c) 0 served in
    let a = Array.make ok 0.0 and j = ref 0 in
    Array.iter
      (fun (r : omeasured) ->
        if r.ok then begin
          a.(!j) <- r.stretch;
          incr j
        end)
      served;
    a
  in
  let s = if Array.length stretches = 0 then Stats.empty_summary else Stats.summarize stretches in
  {
    oracle_k = Path_oracle.k oracle;
    workload;
    dist = Workload.dist_to_string dist;
    queries = m.Engine.queries;
    domains = m.Engine.domains;
    cache_capacity = Engine.cache_capacity f.Serve.engine;
    cache_mode = Engine.cache_mode_to_string (Engine.cache_mode f.Serve.engine);
    guard_label = f.Serve.guard_label;
    chaos_label = Guard.Chaos.label chaos;
    wall_s = m.Engine.wall_s;
    queries_per_sec = m.Engine.routes_per_sec;
    latency = m.Engine.latency;
    cache_hits = m.Engine.cache_hits;
    cache_misses = m.Engine.cache_misses;
    guards = f.Serve.guards;
    ok = Array.length stretches;
    stretch_mean = s.Stats.mean;
    stretch_max = s.Stats.max;
    size_entries = Path_oracle.size_entries oracle;
    storage_bits = Path_oracle.storage_bits oracle;
    shared = Engine.shared_stats f.Serve.engine;
  }

let report_to_json r =
  Jsonl.obj
    [
      ("surface", Jsonl.str "oracle");
      ("k", Jsonl.int r.oracle_k);
      ("workload", Jsonl.str r.workload);
      ("dist", Jsonl.str r.dist);
      ("queries", Jsonl.int r.queries);
      ("domains", Jsonl.int r.domains);
      ("cache", Jsonl.int r.cache_capacity);
      ("cache_mode", Jsonl.str r.cache_mode);
      ("guards", Jsonl.str r.guard_label);
      ("chaos", Jsonl.str r.chaos_label);
      ("wall_s", Jsonl.float r.wall_s);
      ("oracle_queries_per_sec", Jsonl.float r.queries_per_sec);
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
      ("served", Jsonl.int r.guards.Engine.ok);
      ("timed_out", Jsonl.int r.guards.Engine.timed_out);
      ("shed", Jsonl.int r.guards.Engine.shed);
      ("breaker_open", Jsonl.int r.guards.Engine.breaker_open);
      ("worker_lost", Jsonl.int r.guards.Engine.worker_lost);
      ("ok", Jsonl.int r.ok);
      ("stretch_mean", Jsonl.float r.stretch_mean);
      ("stretch_max", Jsonl.float r.stretch_max);
      ("size_entries", Jsonl.int r.size_entries);
      ("storage_bits", Jsonl.int r.storage_bits);
    ]
