(* Tests for the batch query engine and its substrate: the reusable
   domain pool (reuse, exception propagation, nested-call fallback),
   deterministic workload generation, the engine's cache structures,
   and its determinism contract — batch results bit-identical across
   pool widths and with the cache on or off, for every scheme family. *)

module Rng = Cr_util.Rng
module Pool = Cr_util.Domain_pool
module Stats = Cr_util.Stats
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Generators = Cr_graph.Generators
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

(* Every cache mode keeps its tables in one structure, so at pool width 1
   the single lane table is the shared table: same size, same salt, same
   replacement.  Under eviction pressure that pins it exactly — the same
   results and the same hit/miss split. *)
let test_engine_lane_is_shared_at_width_one () =
  let apsp = prepared_graph 43 in
  let sch = Baseline_tz.build ~k:3 apsp in
  let pairs =
    Workload.generate ~connected_in:apsp (Workload.Zipf 1.1) ~seed:44 ~n:100 ~count:3000
  in
  let run cache_mode =
    with_pool ~domains:1 (fun pool ->
        let engine = Engine.create ~cache:64 ~cache_mode ~pool () in
        let results, m = run_off engine apsp sch pairs in
        (results, (m.Engine.cache_hits, m.Engine.cache_misses)))
  in
  let lane, (lh, lm) = run Engine.Lane and shared, (sh, sm) = run Engine.Shared in
  checkb "same results" true (lane = shared);
  checkb "evictions happened" true (lm > 64);
  checki "same hits" sh lh;
  checki "same misses" sm lm

(* Under [Lane] each shard owns its table: swapping the two halves of a
   batch between the shards of a 2-lane pool misses on every query,
   while the one shared table hits on every query.  The halves are
   disjoint and repeat-free, and the capacity is far above the working
   set (its 198 keys hash to distinct slots of the 65536-entry tables),
   so nothing is evicted and no two lanes race for a slot. *)
let test_engine_lane_table_per_shard () =
  let apsp = prepared_graph 45 in
  let sch = Baseline_tz.build ~k:3 apsp in
  let seen = Hashtbl.create 256 in
  let distinct =
    List.filter
      (fun p ->
        let fresh = not (Hashtbl.mem seen p) in
        Hashtbl.replace seen p ();
        fresh)
      (Array.to_list (Experiment.default_pairs ~seed:46 apsp ~count:200))
  in
  let half = List.length distinct / 2 in
  let a = Array.of_list (List.filteri (fun i _ -> i < half) distinct) in
  let b = Array.of_list (List.filteri (fun i _ -> i >= half && i < 2 * half) distinct) in
  let nq = 2 * half in
  let replay cache_mode =
    with_pool ~domains:2 (fun pool ->
        let engine = Engine.create ~cache:65536 ~cache_mode ~pool () in
        let _, m1 = run_off engine apsp sch (Array.append a b) in
        let _, m2 = run_off engine apsp sch (Array.append b a) in
        checki "first batch misses on every query" nq m1.Engine.cache_misses;
        (m2.Engine.cache_hits, m2.Engine.cache_misses))
  in
  checkb "halves are not empty" true (half > 50);
  checkb "lane: swapped halves miss everywhere" true (replay Engine.Lane = (0, nq));
  checkb "shared: swapped halves hit everywhere" true (replay Engine.Shared = (nq, 0))

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
(* Frozen batch digest *)

(* One MD5 over what a batch call computes deterministically: Rng
   streams for a few seeds; Workload pairs, Uniform and Zipf 1.1, with
   and without [connected_in], at pool widths 1 and 2; the stretches
   and stretch summary of [Simulator.aggregate_of_measured]; and the
   deterministic fields of [Serve.run] and [Oserve.run] reports at
   widths 1 and 2, cache off and per lane.  The literal is the digest
   of the reference code: a faster sampler, summary or frame must
   reproduce it unedited. *)
let test_frozen_batch_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf buf fmt in
  List.iter
    (fun seed ->
      let r = Rng.create seed in
      add "rng %d" seed;
      for _ = 1 to 40 do
        add " %Lx %d %d %.17g %b %b" (Rng.bits64 r) (Rng.int r 1000) (Rng.int r max_int)
          (Rng.float r 3.5) (Rng.bernoulli r 0.3) (Rng.bool r)
      done;
      let c = Rng.copy r and s = Rng.split r in
      for _ = 1 to 20 do
        add " %Lx %Lx %Lx" (Rng.bits64 r) (Rng.bits64 c) (Rng.bits64 s)
      done;
      add "\n")
    [ 0; 1; 7; -3; 123_456_789 ];
  (* two components and an isolated node, so [connected_in] filters *)
  let g =
    Graph.create ~n:41
      (List.init 24 (fun i -> (i, i + 1, 1.0 +. float_of_int (i mod 3)))
      @ List.init 14 (fun i -> (26 + i, 27 + i, 2.0)))
  in
  let split_apsp = Apsp.compute g in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          List.iter
            (fun dist ->
              List.iter
                (fun connected_in ->
                  let pairs =
                    Workload.generate ~pool ?connected_in dist ~seed:11 ~n:41 ~count:2500
                  in
                  add "pairs %d %s %b:" domains (Workload.dist_to_string dist)
                    (connected_in <> None);
                  Array.iter (fun (s, d) -> add " %d-%d" s d) pairs;
                  add "\n")
                [ None; Some split_apsp ])
            [ Workload.Uniform; Workload.Zipf 1.1 ]))
    [ 1; 2 ];
  let summary name (s : Stats.summary) =
    add "%s %d %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n" name s.Stats.count
      s.Stats.mean s.Stats.stddev s.Stats.min s.Stats.max s.Stats.p50 s.Stats.p90 s.Stats.p95
      s.Stats.p99
  in
  let apsp = prepared_graph ~n:100 21 in
  let sch = agm_scheme apsp in
  let pairs =
    Workload.generate ~connected_in:apsp (Workload.Zipf 1.1) ~seed:22 ~n:100 ~count:1500
  in
  let agg = Simulator.evaluate apsp sch pairs in
  add "aggregate %d %d:" agg.Simulator.pairs agg.Simulator.delivered;
  Array.iter (fun x -> add " %.17g" x) agg.Simulator.stretches;
  add "\n";
  summary "stretch" agg.Simulator.stretch_stats;
  let oracle = Cr_oracle.Path_oracle.build ~k:3 ~seed:21 apsp in
  List.iter
    (fun domains ->
      List.iter
        (fun cache ->
          let r =
            Serve.run ~cache ~domains ~seed:23 ~queries:3000 ~workload:"er100" apsp sch
          in
          add "serve %d %d %s %d %d %d %.17g %.17g %d %d\n" domains cache r.Serve.cache_mode
            r.Serve.queries r.Serve.guards.Engine.ok r.Serve.delivered r.Serve.stretch_mean
            r.Serve.stretch_p99 r.Serve.cache_hits r.Serve.cache_misses;
          let o =
            Cr_oracle.Oserve.run ~cache ~domains ~seed:24 ~queries:3000 ~workload:"er100" apsp
              oracle
          in
          add "oserve %d %d %s %d %d %d %.17g %.17g %d %d %d %d\n" domains cache
            o.Cr_oracle.Oserve.cache_mode o.Cr_oracle.Oserve.queries
            o.Cr_oracle.Oserve.guards.Engine.ok o.Cr_oracle.Oserve.ok
            o.Cr_oracle.Oserve.stretch_mean o.Cr_oracle.Oserve.stretch_max
            o.Cr_oracle.Oserve.cache_hits o.Cr_oracle.Oserve.cache_misses
            o.Cr_oracle.Oserve.size_entries o.Cr_oracle.Oserve.storage_bits)
        [ 0; 64 ])
    [ 1; 2 ];
  Alcotest.(check string)
    "batch digest" "445def12c76c40a347e2e92385c19bde"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

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
          Alcotest.test_case "lane = shared at width 1" `Quick test_engine_lane_is_shared_at_width_one;
          Alcotest.test_case "one lane table per shard" `Quick test_engine_lane_table_per_shard;
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
          Alcotest.test_case "frozen batch digest" `Quick test_frozen_batch_digest;
        ] );
      ("properties", qsuite);
    ]
