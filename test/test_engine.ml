(* Tests for the batch query engine and its substrate: the reusable
   domain pool (reuse, exception propagation, nested-call fallback), the
   LRU route-plan cache, deterministic workload generation, and the
   engine's determinism contract — batch results bit-identical across
   pool widths and with the cache on or off, for every scheme family. *)

module Rng = Cr_util.Rng
module Pool = Cr_util.Domain_pool
module Stats = Cr_util.Stats
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Generators = Cr_graph.Generators
module Lru = Cr_engine.Lru
module Workload = Cr_engine.Workload
module Engine = Cr_engine.Engine
module Serve = Cr_engine.Serve
module Sweep = Cr_resilience.Sweep
module Fsim = Cr_resilience.Fsim
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let prepared_graph ?(n = 100) ?(avg = 4.0) seed =
  let rng = Rng.create seed in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n ~avg_degree:avg) in
  Apsp.compute (Graph.normalize g)

let agm_scheme ?(k = 3) ?(seed = 1) apsp =
  Agm06.scheme (Agm06.build ~params:(Params.scaled ~k ~seed ()) apsp)

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* A guarded batch under the engine's default Policy.off and no chaos:
   every outcome must be [Ok], and the unwrapped results are what the
   determinism tests compare against the sequential references. *)
let run_off engine apsp sch pairs =
  let outcomes, m, _ = Engine.run_guarded engine apsp sch pairs in
  ( Array.map
      (function Ok r -> r | Error _ -> Alcotest.fail "rejection with guards off")
      outcomes,
    m )

(* ------------------------------------------------------------------ *)
(* Domain_pool *)

let test_pool_covers_every_index () =
  with_pool ~domains:4 (fun pool ->
      checki "domains" 4 (Pool.domains pool);
      let n = 1000 in
      let hits = Array.make n 0 in
      Pool.parallel_for ~chunk:7 pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri (fun i c -> checki (Printf.sprintf "index %d once" i) 1 c) hits)

let test_pool_reuse_across_calls () =
  with_pool ~domains:3 (fun pool ->
      for round = 1 to 5 do
        let n = 64 * round in
        let out = Array.make n (-1) in
        Pool.parallel_for pool ~n (fun i -> out.(i) <- i * i);
        Array.iteri (fun i v -> checki "slot" (i * i) v) out
      done)

let test_pool_exception_propagates () =
  with_pool ~domains:2 (fun pool ->
      let raised =
        try
          Pool.parallel_for pool ~n:100 (fun i -> if i = 57 then failwith "boom");
          false
        with Failure m -> m = "boom"
      in
      checkb "body exception re-raised" true raised;
      (* the pool is still usable after a failed job *)
      let ok = Array.make 32 false in
      Pool.parallel_for pool ~n:32 (fun i -> ok.(i) <- true);
      Array.iter (checkb "usable after failure" true) ok)

let test_pool_nested_call_degrades () =
  with_pool ~domains:2 (fun pool ->
      let inner_total = Atomic.make 0 in
      Pool.parallel_for ~chunk:1 pool ~n:4 (fun _ ->
          (* a nested call on a busy pool must run sequentially, not
             deadlock *)
          Pool.parallel_for pool ~n:8 (fun _ -> Atomic.incr inner_total));
      checki "all nested indexes ran" 32 (Atomic.get inner_total))

let test_pool_size_one_and_clamp () =
  with_pool ~domains:1 (fun pool ->
      checki "size one" 1 (Pool.domains pool);
      let out = Array.make 16 0 in
      Pool.parallel_for pool ~n:16 (fun i -> out.(i) <- 1);
      checki "all ran" 16 (Array.fold_left ( + ) 0 out));
  with_pool ~domains:(-3) (fun pool -> checki "clamped up" 1 (Pool.domains pool))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* after shutdown, parallel_for degrades to a sequential loop *)
  let out = Array.make 8 0 in
  Pool.parallel_for pool ~n:8 (fun i -> out.(i) <- 1);
  checki "sequential after shutdown" 8 (Array.fold_left ( + ) 0 out)

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_basics () =
  let c = Lru.create ~capacity:2 in
  checkb "miss on empty" true (Lru.find c 1 = None);
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  checkb "hit 1" true (Lru.find c 1 = Some "a");
  Lru.add c 3 "c";
  (* 2 was least-recently-used (1 was promoted by the find) *)
  checkb "2 evicted" false (Lru.mem c 2);
  checkb "1 kept" true (Lru.mem c 1);
  checkb "3 kept" true (Lru.mem c 3);
  checki "length" 2 (Lru.length c);
  checki "capacity" 2 (Lru.capacity c);
  checki "hits" 1 (Lru.hits c);
  checki "misses" 1 (Lru.misses c)

let test_lru_update_promotes () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 10;
  Lru.add c 2 20;
  Lru.add c 1 11;
  (* update, promotes 1 *)
  Lru.add c 3 30;
  checkb "2 evicted" false (Lru.mem c 2);
  checkb "updated value" true (Lru.find c 1 = Some 11)

let test_lru_capacity_one_and_validation () =
  let c = Lru.create ~capacity:1 in
  for k = 0 to 9 do
    Lru.add c k k
  done;
  checki "length stays 1" 1 (Lru.length c);
  checkb "only the last key" true (Lru.mem c 9 && not (Lru.mem c 8));
  (* at capacity 1 every add of a fresh key evicts the resident one, and
     a find of the resident key (itself the MRU) must not perturb it *)
  checkb "resident hit" true (Lru.find c 9 = Some 9);
  checkb "evicted miss" true (Lru.find c 0 = None);
  Lru.add c 10 10;
  checkb "fresh add evicts resident" true (Lru.mem c 10 && not (Lru.mem c 9));
  checki "still length 1" 1 (Lru.length c);
  checki "hits counted" 1 (Lru.hits c);
  checki "misses counted" 1 (Lru.misses c);
  checkb "capacity 0 rejected" true
    (try ignore (Lru.create ~capacity:0); false with Invalid_argument _ -> true)

let test_lru_interleaved_at_capacity () =
  (* a full interleaving of hits, misses, updates and evictions while
     the cache sits exactly at its capacity boundary, with exact
     counter accounting at every step *)
  let c = Lru.create ~capacity:3 in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  Lru.add c 3 "c";
  checki "at capacity" 3 (Lru.length c);
  checkb "hit promotes 1" true (Lru.find c 1 = Some "a");
  (* recency now 2 < 3 < 1: a fresh add must evict 2, not 1 *)
  Lru.add c 4 "d";
  checkb "2 evicted" false (Lru.mem c 2);
  checkb "miss on evicted" true (Lru.find c 2 = None);
  checkb "hit promotes 3" true (Lru.find c 3 = Some "c");
  (* recency 1 < 4 < 3: next eviction takes 1 *)
  Lru.add c 5 "e";
  checkb "1 evicted" false (Lru.mem c 1);
  checkb "miss on 1" true (Lru.find c 1 = None);
  (* updating a resident key at capacity evicts nothing *)
  Lru.add c 5 "E";
  checki "update keeps length" 3 (Lru.length c);
  checkb "updated value" true (Lru.find c 5 = Some "E");
  checkb "4 survived the update" true (Lru.mem c 4);
  checkb "3 survived the update" true (Lru.mem c 3);
  checki "exact hits" 3 (Lru.hits c);
  checki "exact misses" 2 (Lru.misses c);
  checki "never over capacity" 3 (Lru.length c)

let test_lru_churn_against_hashtbl () =
  (* random churn: the LRU must agree with a model that never evicts, on
     every key that is still resident *)
  let c = Lru.create ~capacity:16 in
  let model = Hashtbl.create 64 in
  let rng = Rng.create 99 in
  for _ = 1 to 2000 do
    let k = Rng.int rng 48 in
    if Rng.int rng 2 = 0 then begin
      let v = Rng.int rng 1000 in
      Lru.add c k v;
      Hashtbl.replace model k v
    end
    else
      match Lru.find c k with
      | Some v -> checki "resident value matches model" (Hashtbl.find model k) v
      | None -> ()
  done;
  checkb "bounded" true (Lru.length c <= 16)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_deterministic () =
  let a = Workload.generate Workload.Uniform ~seed:5 ~n:100 ~count:3000 in
  let b = Workload.generate Workload.Uniform ~seed:5 ~n:100 ~count:3000 in
  checkb "same seed, same stream" true (a = b);
  let c = Workload.generate Workload.Uniform ~seed:6 ~n:100 ~count:3000 in
  checkb "different seed differs" true (a <> c)

let test_workload_pool_invariant () =
  let seq = Workload.generate (Workload.Zipf 1.1) ~seed:5 ~n:100 ~count:2500 in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let par = Workload.generate ~pool (Workload.Zipf 1.1) ~seed:5 ~n:100 ~count:2500 in
          checkb (Printf.sprintf "pool %d identical" domains) true (seq = par)))
    [ 1; 2; 4 ]

let test_workload_pairs_valid () =
  let pairs = Workload.generate (Workload.Zipf 1.4) ~seed:9 ~n:50 ~count:4000 in
  checki "count" 4000 (Array.length pairs);
  Array.iter
    (fun (s, d) ->
      checkb "in range" true (s >= 0 && s < 50 && d >= 0 && d < 50);
      checkb "src <> dst" true (s <> d))
    pairs

let test_workload_zipf_is_skewed () =
  let pairs = Workload.generate (Workload.Zipf 1.2) ~seed:9 ~n:100 ~count:5000 in
  let freq = Array.make 100 0 in
  Array.iter (fun (s, d) -> freq.(s) <- freq.(s) + 1; freq.(d) <- freq.(d) + 1) pairs;
  (* rank 0 must be much hotter than the tail under zipf *)
  checkb "head heavier than tail" true (freq.(0) > 4 * freq.(99))

let test_workload_connected_filter () =
  (* two components: pairs must never cross *)
  let g =
    Graph.create ~n:6 [ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0); (4, 5, 1.0) ]
  in
  let apsp = Apsp.compute g in
  let pairs = Workload.generate ~connected_in:apsp Workload.Uniform ~seed:3 ~n:6 ~count:500 in
  Array.iter
    (fun (s, d) -> checkb "finite distance" true (Apsp.distance apsp s d < infinity))
    pairs

let test_workload_zipf_boundaries () =
  (* rank_of is the inverse CDF behind draw: the boundary draws must pin
     the hottest node at u = 0.0 and the coldest at u = 1.0, with the
     final cdf cell forced to exactly 1.0 so no u can fall off the end *)
  List.iter
    (fun s ->
      let d = Workload.Zipf s in
      checki (Printf.sprintf "zipf:%g u=0 is rank 0" s) 0 (Workload.rank_of d ~n:50 0.0);
      checki (Printf.sprintf "zipf:%g u=1 is rank n-1" s) 49 (Workload.rank_of d ~n:50 1.0);
      checki (Printf.sprintf "zipf:%g u just under 1" s) 49
        (Workload.rank_of d ~n:50 (1.0 -. 1e-12));
      (* monotone in u *)
      let prev = ref (-1) in
      for i = 0 to 100 do
        let r = Workload.rank_of d ~n:50 (float_of_int i /. 100.0) in
        checkb "rank in range" true (r >= 0 && r < 50);
        checkb "monotone" true (r >= !prev);
        prev := r
      done)
    [ 0.5; 1.1; 2.0 ];
  (* n = 1 degenerates to the single node at both ends *)
  checki "n=1 u=0" 0 (Workload.rank_of (Workload.Zipf 1.1) ~n:1 0.0);
  checki "n=1 u=1" 0 (Workload.rank_of (Workload.Zipf 1.1) ~n:1 1.0);
  (* uniform endpoints, and out-of-range u clamps instead of escaping *)
  checki "uniform u=0" 0 (Workload.rank_of Workload.Uniform ~n:10 0.0);
  checki "uniform u=1 capped" 9 (Workload.rank_of Workload.Uniform ~n:10 1.0);
  checki "u clamped below" 0 (Workload.rank_of (Workload.Zipf 1.1) ~n:10 (-0.5));
  checki "u clamped above" 9 (Workload.rank_of (Workload.Zipf 1.1) ~n:10 2.0);
  checkb "n=0 rejected" true
    (try ignore (Workload.rank_of Workload.Uniform ~n:0 0.5); false
     with Invalid_argument _ -> true)

let test_workload_dist_parsing () =
  checkb "uniform" true (Workload.dist_of_string "uniform" = Ok Workload.Uniform);
  checkb "zipf default" true (Workload.dist_of_string "zipf" = Ok (Workload.Zipf 1.1));
  checkb "zipf exponent" true (Workload.dist_of_string "zipf:0.8" = Ok (Workload.Zipf 0.8));
  checkb "garbage rejected" true
    (match Workload.dist_of_string "pareto" with Error _ -> true | Ok _ -> false);
  List.iter
    (fun d ->
      checkb "roundtrip" true
        (Workload.dist_of_string (Workload.dist_to_string d) = Ok d))
    [ Workload.Uniform; Workload.Zipf 1.1; Workload.Zipf 0.75 ]

(* ------------------------------------------------------------------ *)
(* Engine determinism contract *)

let schemes_under_test apsp =
  [ agm_scheme apsp; Baseline_tz.build ~k:3 apsp; Baseline_tree.build apsp ]

let test_engine_matches_sequential_everywhere () =
  let apsp = prepared_graph 11 in
  let pairs = Experiment.default_pairs ~seed:12 apsp ~count:400 in
  List.iter
    (fun (sch : Scheme.t) ->
      let reference = Simulator.measure_all apsp sch pairs in
      List.iter
        (fun domains ->
          List.iter
            (fun cache ->
              with_pool ~domains (fun pool ->
                  let engine = Engine.create ~cache ~pool () in
                  let results, m = run_off engine apsp sch pairs in
                  checkb
                    (Printf.sprintf "%s: domains=%d cache=%d identical" sch.Scheme.name
                       domains cache)
                    true (results = reference);
                  checki "metrics.queries" (Array.length pairs) m.Engine.queries;
                  checki "metrics.domains" domains m.Engine.domains))
            [ 0; 64 ])
        [ 1; 2; 4 ])
    (schemes_under_test apsp)

let test_engine_aggregate_matches_evaluate () =
  let apsp = prepared_graph 13 in
  let pairs = Experiment.default_pairs ~seed:14 apsp ~count:300 in
  let sch = agm_scheme apsp in
  let reference = Simulator.evaluate apsp sch pairs in
  with_pool ~domains:3 (fun pool ->
      let engine = Engine.create ~cache:128 ~pool () in
      let results, _ = run_off engine apsp sch pairs in
      let agg = Simulator.aggregate_of_measured results in
      checkb "aggregate bit-identical" true (agg = reference))

let test_engine_cache_hits_on_replay () =
  let apsp = prepared_graph 15 in
  let pairs = Experiment.default_pairs ~seed:16 apsp ~count:200 in
  let sch = Baseline_tz.build ~k:3 apsp in
  with_pool ~domains:2 (fun pool ->
      let engine = Engine.create ~cache:4096 ~pool () in
      let r1, m1 = run_off engine apsp sch pairs in
      (* capacity exceeds the working set: a replay must hit on every query *)
      let r2, m2 = run_off engine apsp sch pairs in
      checkb "replay identical" true (r1 = r2);
      checki "replay all hits" (Array.length pairs) m2.Engine.cache_hits;
      checki "replay no misses" 0 m2.Engine.cache_misses;
      checkb "first batch missed at least once" true (m1.Engine.cache_misses > 0);
      let hits, misses = Engine.cache_stats engine in
      checki "lifetime totals" (2 * Array.length pairs) (hits + misses))

let test_engine_empty_and_validation () =
  let apsp = prepared_graph 17 ~n:30 in
  let sch = Baseline_tree.build apsp in
  with_pool ~domains:2 (fun pool ->
      let engine = Engine.create ~pool () in
      let results, m = run_off engine apsp sch [||] in
      checki "empty results" 0 (Array.length results);
      checki "empty queries" 0 m.Engine.queries);
  checkb "negative cache rejected" true
    (try ignore (Engine.create ~cache:(-1) ()); false with Invalid_argument _ -> true)

let test_engine_counters_aggregate () =
  (* a batch's metrics are its only cache tally: every query of a
     batch is a hit or a miss, and a replay that fits the cache is all
     hits *)
  let apsp = prepared_graph 18 ~n:60 in
  let pairs = Experiment.default_pairs ~seed:19 apsp ~count:150 in
  let sch = Baseline_tz.build ~k:3 apsp in
  let nq = Array.length pairs in
  with_pool ~domains:2 (fun pool ->
      let engine = Engine.create ~cache:4096 ~pool () in
      let _, m1 = run_off engine apsp sch pairs in
      let _, m2 = run_off engine apsp sch pairs in
      checki "first batch: hits + misses = queries" nq
        (m1.Engine.cache_hits + m1.Engine.cache_misses);
      checki "replay hits on every query" nq m2.Engine.cache_hits;
      checki "replay misses none" 0 m2.Engine.cache_misses)

(* ------------------------------------------------------------------ *)
(* Rewired call sites: Apsp, Experiment, Sweep, Agm06 counters *)

let test_apsp_parallel_matches_sequential () =
  let rng = Rng.create 19 in
  let g = Graph.normalize (Graph.relabel rng (Generators.erdos_renyi rng ~n:120 ~avg_degree:4.0)) in
  let seq = Apsp.compute g in
  List.iter
    (fun domains ->
      let par = Apsp.compute_parallel ~domains g in
      let same = ref true in
      for s = 0 to Graph.n g - 1 do
        for d = 0 to Graph.n g - 1 do
          if Apsp.distance seq s d <> Apsp.distance par s d then same := false
        done
      done;
      checkb (Printf.sprintf "domains=%d distances identical" domains) true !same)
    [ 1; 2; 4 ]

let test_experiment_row_pool_invariant () =
  let apsp = prepared_graph 21 in
  let pairs = Experiment.default_pairs ~seed:22 apsp ~count:250 in
  let sch = agm_scheme apsp in
  let rows =
    List.map
      (fun domains ->
        with_pool ~domains (fun pool -> Experiment.run_scheme ~pool apsp sch ~pairs))
      [ 1; 2; 4 ]
  in
  match rows with
  | r1 :: rest -> List.iter (fun r -> checkb "row identical" true (r = r1)) rest
  | [] -> assert false

let test_sweep_pool_invariant () =
  let apsp = prepared_graph 23 in
  let g = Apsp.graph apsp in
  let pairs = Experiment.default_pairs ~seed:24 apsp ~count:150 in
  let schemes = [ Baseline_tz.build ~k:3 apsp; Baseline_tree.build apsp ] in
  let policy = Fsim.default_policy ~max_retries:1 g in
  let run domains =
    with_pool ~domains (fun pool ->
        Sweep.sweep ~pool ~policy ~model:Sweep.Edges ~seed:25 ~rates:[ 0.0; 0.1 ] apsp
          schemes pairs)
  in
  let c1 = run 1 and c4 = run 4 in
  checkb "sweep cells identical across pool widths" true (c1 = c4)

let test_agm06_counters_exact_under_parallel () =
  let apsp = prepared_graph 27 in
  let a = Agm06.build ~params:(Params.scaled ~k:3 ~seed:1 ()) apsp in
  let sch = Agm06.scheme a in
  let pairs = Experiment.default_pairs ~seed:28 apsp ~count:100 in
  with_pool ~domains:4 (fun pool ->
      ignore (Simulator.evaluate ~pool apsp sch pairs));
  let st = Agm06.stats a in
  checki "routes counted exactly" 100 st.Agm06.routes;
  checki "delivered + failed = routes" st.Agm06.routes (st.Agm06.delivered + st.Agm06.failed);
  (* every pair has src <> dst, so each delivery lands in exactly one
     phase bucket (fallback deliveries included) *)
  let phase_sum = Array.fold_left ( + ) 0 st.Agm06.phase_found in
  checki "phase histogram sums to deliveries" st.Agm06.delivered phase_sum;
  checkb "fallback within deliveries" true (st.Agm06.fallback_resolved <= st.Agm06.delivered)

(* ------------------------------------------------------------------ *)
(* Serve *)

let test_serve_deterministic_across_domains () =
  let apsp = prepared_graph 31 ~n:80 in
  let sch = agm_scheme apsp in
  let run domains cache =
    Serve.run ~cache ~domains ~seed:32 ~queries:600 ~workload:"test" apsp sch
  in
  let r1 = run 1 0 and r2 = run 2 0 and r4 = run 4 256 in
  checki "delivered invariant (1 vs 2)" r1.Serve.delivered r2.Serve.delivered;
  checki "delivered invariant (1 vs 4+cache)" r1.Serve.delivered r4.Serve.delivered;
  checkb "stretch mean invariant" true
    (r1.Serve.stretch_mean = r2.Serve.stretch_mean
    && r1.Serve.stretch_mean = r4.Serve.stretch_mean);
  checkb "stretch p99 invariant" true (r1.Serve.stretch_p99 = r4.Serve.stretch_p99);
  checki "queries" 600 r1.Serve.queries;
  checki "domains recorded" 2 r2.Serve.domains;
  checkb "cache counters add up" true
    (r4.Serve.cache_hits + r4.Serve.cache_misses = 600);
  checkb "hit rate in [0,1]" true
    (Serve.hit_rate r4 >= 0.0 && Serve.hit_rate r4 <= 1.0);
  checkb "no cache, no counters" true (r1.Serve.cache_hits = 0 && r1.Serve.cache_misses = 0)

let test_engine_shared_cache_mode () =
  let apsp = prepared_graph 41 ~n:64 in
  let sch = agm_scheme apsp in
  let pairs =
    Workload.generate ~connected_in:apsp (Workload.Zipf 1.1) ~seed:42 ~n:64 ~count:400
  in
  with_pool ~domains:2 (fun pool ->
      let engine = Engine.create ~cache:1024 ~cache_mode:Engine.Shared ~pool () in
      checkb "mode recorded" true (Engine.cache_mode engine = Engine.Shared);
      let r1, _ = run_off engine apsp sch pairs in
      let r2, _ = run_off engine apsp sch pairs in
      checkb "replay identical through the shared table" true (r1 = r2);
      let s = Engine.shared_stats engine in
      checkb "replay hits the shared table" true (s.Cr_util.Ttcache.hits > 0);
      let hits, misses = Engine.cache_stats engine in
      checki "cache_stats reconciles with the table" (s.Cr_util.Ttcache.hits) hits;
      checki "misses reconcile too" (s.Cr_util.Ttcache.misses) misses);
  checkb "shared with no capacity rejected" true
    (try
       ignore (Engine.create ~cache:0 ~cache_mode:Engine.Shared () : unit Engine.t);
       false
     with Invalid_argument _ -> true);
  checkb "mode parsing round-trips" true
    (Engine.cache_mode_of_string "shared" = Ok Engine.Shared
    && Engine.cache_mode_of_string "lane" = Ok Engine.Lane
    && Engine.cache_mode_of_string "off" = Ok Engine.Off
    && Result.is_error (Engine.cache_mode_of_string "bogus"))

let test_serve_json_shape () =
  let apsp = prepared_graph 33 ~n:60 in
  let sch = Baseline_tz.build ~k:3 apsp in
  let r = Serve.run ~cache:64 ~domains:2 ~seed:34 ~queries:200 ~workload:"er60" apsp sch in
  let j = Serve.report_to_json r in
  checkb "single line" true (not (String.contains j '\n'));
  List.iter
    (fun field ->
      let needle = Printf.sprintf "\"%s\":" field in
      let found =
        let nl = String.length needle and jl = String.length j in
        let rec scan i = i + nl <= jl && (String.sub j i nl = needle || scan (i + 1)) in
        scan 0
      in
      checkb (Printf.sprintf "field %s present" field) true found)
    [
      "scheme"; "workload"; "dist"; "queries"; "domains"; "cache"; "cache_mode";
      "routes_per_sec"; "latency_p50_us"; "latency_p95_us"; "latency_p99_us"; "hit_rate";
      "shared_hits"; "shared_misses"; "shared_replaced"; "shared_aged"; "delivered";
      "stretch_mean"; "stretch_p99";
    ]

(* ------------------------------------------------------------------ *)
(* properties *)

let qcheck_tests =
  [
    QCheck.Test.make ~count:8 ~name:"engine batch = sequential for random seeds"
      QCheck.(pair (int_range 1 1000) (int_range 0 1))
      (fun (seed, which) ->
        let apsp = prepared_graph ~n:48 seed in
        let sch =
          if which = 0 then Baseline_tz.build ~k:2 apsp else Baseline_tree.build apsp
        in
        let pairs =
          Workload.generate ~connected_in:apsp Workload.Uniform ~seed:(seed + 1) ~n:48
            ~count:120
        in
        let reference = Simulator.measure_all apsp sch pairs in
        with_pool ~domains:3 (fun pool ->
            let engine = Engine.create ~cache:32 ~pool () in
            let results, _ = run_off engine apsp sch pairs in
            results = reference));
    QCheck.Test.make ~count:6 ~name:"results identical across pool widths x cache modes"
      QCheck.(int_range 1 1000)
      (fun seed ->
        let apsp = prepared_graph ~n:48 seed in
        let sch = agm_scheme apsp in
        let pairs =
          Workload.generate ~connected_in:apsp (Workload.Zipf 1.1) ~seed:(seed + 1) ~n:48
            ~count:150
        in
        let reference = Simulator.measure_all apsp sch pairs in
        List.for_all
          (fun domains ->
            with_pool ~domains (fun pool ->
                List.for_all
                  (fun (cache, mode) ->
                    let engine = Engine.create ~cache ~cache_mode:mode ~pool () in
                    let results, _ = run_off engine apsp sch pairs in
                    results = reference)
                  [ (0, Engine.Off); (64, Engine.Lane); (64, Engine.Shared) ]))
          [ 1; 2; 4 ]);
    QCheck.Test.make ~count:10 ~name:"workload generation is pool-invariant"
      QCheck.(pair (int_range 1 1000) (int_range 2 200))
      (fun (seed, n) ->
        let seq = Workload.generate (Workload.Zipf 1.1) ~seed ~n ~count:700 in
        with_pool ~domains:4 (fun pool ->
            Workload.generate ~pool (Workload.Zipf 1.1) ~seed ~n ~count:700 = seq));
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "engine"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "covers every index once" `Quick test_pool_covers_every_index;
          Alcotest.test_case "reusable across calls" `Quick test_pool_reuse_across_calls;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "nested call degrades" `Quick test_pool_nested_call_degrades;
          Alcotest.test_case "size one and clamping" `Quick test_pool_size_one_and_clamp;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "update promotes" `Quick test_lru_update_promotes;
          Alcotest.test_case "capacity one + validation" `Quick test_lru_capacity_one_and_validation;
          Alcotest.test_case "interleaved at capacity" `Quick test_lru_interleaved_at_capacity;
          Alcotest.test_case "random churn vs model" `Quick test_lru_churn_against_hashtbl;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "pool-invariant" `Quick test_workload_pool_invariant;
          Alcotest.test_case "pairs valid" `Quick test_workload_pairs_valid;
          Alcotest.test_case "zipf skew" `Quick test_workload_zipf_is_skewed;
          Alcotest.test_case "connected filter" `Quick test_workload_connected_filter;
          Alcotest.test_case "zipf boundaries" `Quick test_workload_zipf_boundaries;
          Alcotest.test_case "dist parsing" `Quick test_workload_dist_parsing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "matches sequential (3 schemes x 3 widths x cache)" `Quick
            test_engine_matches_sequential_everywhere;
          Alcotest.test_case "aggregate = Simulator.evaluate" `Quick
            test_engine_aggregate_matches_evaluate;
          Alcotest.test_case "cache hits on replay" `Quick test_engine_cache_hits_on_replay;
          Alcotest.test_case "empty batch + validation" `Quick test_engine_empty_and_validation;
          Alcotest.test_case "counters aggregate" `Quick test_engine_counters_aggregate;
          Alcotest.test_case "shared cache mode" `Quick test_engine_shared_cache_mode;
        ] );
      ( "rewired_call_sites",
        [
          Alcotest.test_case "apsp parallel = sequential" `Quick
            test_apsp_parallel_matches_sequential;
          Alcotest.test_case "experiment row pool-invariant" `Quick
            test_experiment_row_pool_invariant;
          Alcotest.test_case "sweep pool-invariant" `Quick test_sweep_pool_invariant;
          Alcotest.test_case "agm06 counters exact under parallel" `Quick
            test_agm06_counters_exact_under_parallel;
        ] );
      ( "serve",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            test_serve_deterministic_across_domains;
          Alcotest.test_case "json shape" `Quick test_serve_json_shape;
        ] );
      ("properties", qsuite);
    ]
