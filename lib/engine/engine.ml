(* The batch query engine: shards a (src, dst) query array across the
   lanes of a domain pool, optionally consulting a result cache
   (Ttcache), and records throughput plus per-query latency.

   The engine is polymorphic in the per-query result type 'r: the same
   sharded loop, caches and guard chain serve routed measurements
   (Sim.measured, the original surface) and oracle answers
   (Cr_oracle via run_custom) without duplicating the serving stack.

   Determinism contract (tested in test/test_engine.ml and
   test/test_guard.ml):
   - result.(i) is a pure function of (measure, pairs.(i)): the measure
     closures read only immutable preprocessed tables, so the result
     array is bit-identical across any pool width and with the cache on
     or off.
   - Sharding is static: shard l owns the contiguous slice
     [l*nq/lanes, (l+1)*nq/lanes), so each per-shard cache, breaker and
     cost estimate is touched by exactly one executor per batch (no
     locking needed) and hit/miss totals are reproducible for a fixed
     (pairs, lanes, capacity).  Under pool chaos a crashed lane's whole
     shard is requeued to a survivor, so the single-executor-per-batch
     property — and with it the result array — survives lane loss.
   - Metrics (wall time, latency percentiles) are measured on the
     process clock (Cr_obs.Clock), not simulated, and are the only
     nondeterministic outputs.

   Every query passes the guard chain (Cr_guard.Chain) of its shard:
   batch deadline, shed admission and circuit breaker, then execution
   under chaos injection and bounded retry, and the query / batch
   deadlines.  Every refusal is a structured Cr_guard.Rejection —
   nothing raises — and with Policy.off and Chaos.none the chain only
   runs the query, so the results are those of a sequential loop. *)

module Pool = Cr_util.Domain_pool
module Stats = Cr_util.Stats
module Ttcache = Cr_util.Ttcache
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Sim = Compact_routing.Simulator
module Guard = Cr_guard
module Clock = Cr_obs.Clock

(* Where memoized results live: nowhere, in one table per shard (single
   executor per batch), or in one table shared by every lane — a hot
   key then misses once per engine, not once per lane, which is the
   whole point of sharing.  Every table is a Ttcache. *)
type cache_mode = Off | Lane | Shared

let cache_mode_to_string = function Off -> "off" | Lane -> "lane" | Shared -> "shared"

let cache_mode_of_string = function
  | "off" -> Ok Off
  | "lane" -> Ok Lane
  | "shared" -> Ok Shared
  | s -> Error (Printf.sprintf "unknown cache mode %S (try off, lane or shared)" s)

type 'r t = {
  pool : Pool.t;
  cache_capacity : int;
  mode : cache_mode;
  caches : 'r Ttcache.t array; (* none under Off, one per shard under Lane, one under Shared *)
  policy : Guard.Policy.t;
  guards : Guard.Chain.t array; (* one per shard: breaker, cost estimate, tallies *)
}

type metrics = {
  queries : int;
  domains : int;
  wall_s : float;
  routes_per_sec : float;
  latency : Stats.summary;
  cache_hits : int;
  cache_misses : int;
}

type outcome = (Sim.measured, Guard.Rejection.t) result

type guard_stats = {
  ok : int;
  timed_out : int;
  shed : int;
  breaker_open : int;
  worker_lost : int;
  retries : int;
  requeues : int;
  lost_lanes : int;
  stalls : int;
}

let create ?(cache = 0) ?cache_mode ?salt ?(policy = Guard.Policy.off) ?pool () =
  if cache < 0 then invalid_arg "Engine.create: negative cache capacity";
  let mode =
    match cache_mode with
    | Some Shared when cache = 0 ->
        invalid_arg "Engine.create: shared cache mode needs a capacity > 0"
    | Some m -> if cache = 0 then Off else m
    | None -> if cache = 0 then Off else Lane
  in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  let lanes = Pool.domains pool in
  let tables = match mode with Off -> 0 | Lane -> lanes | Shared -> 1 in
  {
    pool;
    cache_capacity = (if mode = Off then 0 else cache);
    mode;
    caches = Array.init tables (fun _ -> Ttcache.create ?salt ~capacity:cache ());
    policy;
    guards = Array.init lanes (fun _ -> Guard.Chain.create policy);
  }

let cache_capacity t = t.cache_capacity
let cache_mode t = t.mode

let shared_stats t = if t.mode = Shared then Ttcache.stats t.caches.(0) else Ttcache.no_stats

let breaker_state t ~shard = Guard.Chain.breaker_state t.guards.(shard)

let cache_stats t =
  Array.fold_left
    (fun (h, m) c ->
      let s = Ttcache.stats c in
      (h + s.Ttcache.hits, m + s.Ttcache.misses))
    (0, 0) t.caches

let slice ~lanes ~nq lane = (lane * nq / lanes, (lane + 1) * nq / lanes)

let id_canon s d = (s, d)
let id_orient ~src:_ ~dst:_ r = r

(* The single batch core, generic in the result type.  [n] is the node
   count (cache keys are (s * n) + d); [measure] computes one query from
   immutable tables; [placeholder] seeds the result array (every slot
   is overwritten — the pool guarantees exactly-once execution even
   under lane crashes).

   [canon]/[orient] factor a query through a canonical representative:
   every query — hit, miss, or cache off — computes
   [orient ~src ~dst (measure (canon src dst))], so two queries with the
   same canonical pair share one cache entry (and one computation),
   while the result stays a pure function of the original (src, dst) in
   every cache mode.  The defaults are the identity, preserving the
   directional routing surface exactly. *)
let run_custom (type r) ?(chaos = Guard.Chaos.none) ?(canon = id_canon) ?(orient = id_orient)
    (t : r t) ~n ~(placeholder : r) ~measure pairs =
  let nq = Array.length pairs in
  let lanes = Pool.domains t.pool in
  let out = Array.make (max nq 1) (Ok placeholder) in
  let lat = Array.make (max nq 1) 0.0 in
  let tally f = Array.fold_left (fun acc g -> acc + f g) 0 t.guards in
  let retries0 = tally Guard.Chain.retries and stalls0 = tally Guard.Chain.stalls in
  let hits0, misses0 = cache_stats t in
  let batch = Guard.Deadline.start ?budget_s:t.policy.Guard.Policy.batch_budget_s () in
  let t0 = !Clock.now () in
  let pool_stats =
    if nq = 0 then Pool.no_stats
    else
      Pool.parallel_for_stats ~chunk:1 ?chaos:(Guard.Chaos.pool_chaos chaos) t.pool ~n:lanes
        (fun shard ->
          let lo, hi = slice ~lanes ~nq shard in
          let guard = t.guards.(shard) in
          let lookup =
            (* engines serve one immutable build, so the generation is
               constant; epoch-style aging is the daemon's use *)
            let memo tt s d = Ttcache.memo tt ~gen:0 ~key:((s * n) + d) (fun () -> measure s d) in
            match t.mode with
            | Off -> measure
            | Lane -> memo t.caches.(shard)
            | Shared -> memo t.caches.(0)
          in
          let measure s d =
            let cs, cd = canon s d in
            orient ~src:s ~dst:d (lookup cs cd)
          in
          for q = lo to hi - 1 do
            let s, d = pairs.(q) in
            let q0 = !Clock.now () in
            out.(q) <-
              (match Guard.Chain.admit guard ~batch ~queued:(hi - 1 - q) with
              | Some rejection -> Error rejection
              | None -> Guard.Chain.run guard chaos ~batch ~q (fun () -> measure s d));
            lat.(q) <- !Clock.now () -. q0
          done)
  in
  let wall = !Clock.now () -. t0 in
  let hits1, misses1 = cache_stats t in
  (* tally outcomes once per batch, from the coordinating thread: the
     counts are pure functions of the outcome array *)
  let ok = ref 0 and timed_out = ref 0 and shed = ref 0 in
  let breaker_open = ref 0 and worker_lost = ref 0 in
  for q = 0 to nq - 1 do
    match out.(q) with
    | Ok _ -> incr ok
    | Error Guard.Rejection.Timed_out -> incr timed_out
    | Error Guard.Rejection.Shed -> incr shed
    | Error Guard.Rejection.Breaker_open -> incr breaker_open
    | Error Guard.Rejection.Worker_lost -> incr worker_lost
  done;
  let gstats =
    {
      ok = !ok;
      timed_out = !timed_out;
      shed = !shed;
      breaker_open = !breaker_open;
      worker_lost = !worker_lost;
      retries = tally Guard.Chain.retries - retries0;
      requeues = pool_stats.Pool.requeued;
      lost_lanes = pool_stats.Pool.lost_lanes;
      stalls = pool_stats.Pool.stalls + (tally Guard.Chain.stalls - stalls0);
    }
  in
  let metrics =
    {
      queries = nq;
      domains = lanes;
      wall_s = wall;
      routes_per_sec = (if wall > 0.0 then float_of_int nq /. wall else 0.0);
      latency = (if nq = 0 then Stats.empty_summary else Stats.summarize lat);
      cache_hits = hits1 - hits0;
      cache_misses = misses1 - misses0;
    }
  in
  ((if nq = 0 then [||] else Array.sub out 0 nq), metrics, gstats)

let route_placeholder =
  { Sim.src = 0; dst = 0; delivered = false; cost = 0.0; hops = 0; stretch = infinity }

let run_guarded ?chaos t apsp scheme pairs =
  run_custom ?chaos t ~n:(Graph.n (Apsp.graph apsp)) ~placeholder:route_placeholder
    ~measure:(fun s d -> Sim.measure apsp scheme s d)
    pairs
