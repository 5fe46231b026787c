(* Tests for the guard stack (lib/guard), pool chaos injection, and the
   guarded serving path end-to-end.  The suite pins the three ISSUE
   acceptance properties:

   - injected crashes, stalls and overload always terminate in
     structured outcomes (no hang, no uncaught exception);
   - with chaos off and Policy.off the guarded path is bit-identical to
     the sequential Simulator.measure_all, across pool widths and cache
     settings;
   - the guard tally that the serve report carries matches a recount
     of the per-query outcome array. *)

module Rng = Cr_util.Rng
module Pool = Cr_util.Domain_pool
module Jsonl = Cr_util.Jsonl
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Generators = Cr_graph.Generators
module Guard = Cr_guard
module Clock = Cr_obs.Clock
module Deadline = Cr_guard.Deadline
module Retry = Cr_guard.Retry
module Breaker = Cr_guard.Breaker
module Shed = Cr_guard.Shed
module Rejection = Cr_guard.Rejection
module Chaos = Cr_guard.Chaos
module Policy = Cr_guard.Policy
module Engine = Cr_engine.Engine
module Workload = Cr_engine.Workload
module Serve = Cr_engine.Serve
module Chaos_sweep = Cr_engine.Chaos_sweep
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

let prepared_graph ?(n = 80) ?(avg = 4.0) seed =
  let rng = Rng.create seed in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n ~avg_degree:avg) in
  Apsp.compute (Graph.normalize g)

let agm_scheme ?(k = 3) ?(seed = 1) apsp =
  Agm06.scheme (Agm06.build ~params:(Params.scaled ~k ~seed ()) apsp)

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let raises_invalid f = try ignore (f ()); false with Invalid_argument _ -> true

(* tag an outcome for interleaving-independent comparisons *)
let tag = function
  | Ok _ -> "ok"
  | Error Rejection.Timed_out -> "timeout"
  | Error Rejection.Shed -> "shed"
  | Error Rejection.Breaker_open -> "breaker"
  | Error Rejection.Worker_lost -> "lost"

(* ------------------------------------------------------------------ *)
(* Clock + Deadline *)

let test_deadline_unbounded () =
  let d = Deadline.start () in
  checkb "not bounded" false (Deadline.bounded d);
  checkb "never expires" false (Deadline.expired d);
  checkb "remaining infinite" true (Deadline.remaining d = infinity)

let test_deadline_zero_budget () =
  let d = Deadline.start ~budget_s:0.0 () in
  checkb "bounded" true (Deadline.bounded d);
  checkb "already expired" true (Deadline.expired d)

let test_deadline_fake_clock () =
  Clock.with_fake (fun advance ->
      let d = Deadline.start ~budget_s:10.0 () in
      advance 4.0;
      checkf "remaining" 6.0 (Deadline.remaining d);
      checkb "not yet" false (Deadline.expired d);
      advance 6.0;
      checkb "expired at budget" true (Deadline.expired d);
      advance 1.0;
      checkb "stays expired" true (Deadline.expired d);
      checkb "remaining negative" true (Deadline.remaining d < 0.0))

let test_deadline_negative_raises () =
  checkb "negative budget" true (raises_invalid (fun () -> Deadline.start ~budget_s:(-1.0) ()))

let test_fake_clock_restores () =
  let before = !Clock.now in
  (try Clock.with_fake (fun _ -> failwith "boom") with Failure _ -> ());
  checkb "real clock restored after exception" true (!Clock.now == before)

let test_monotonic_never_goes_backwards () =
  let last = ref (Clock.monotonic ()) in
  for _ = 1 to 1000 do
    let t = Clock.monotonic () in
    checkb "non-decreasing" true (t >= !last);
    last := t
  done;
  (* the default now is the monotonic source, so deadlines are immune
     to wall-clock steps *)
  let a = !Clock.now () in
  let b = !Clock.now () in
  checkb "default clock monotonic too" true (b >= a)

let test_default_sleep_advances_clock () =
  let t0 = !Clock.now () in
  !Clock.sleep 0.002;
  checkb "slept at least the request" true (!Clock.now () -. t0 >= 0.0015)

(* ------------------------------------------------------------------ *)
(* Retry *)

let test_retry_none_is_identity () =
  let calls = ref 0 in
  let r = Retry.run Retry.none ~key:7 (fun ~attempt ->
      incr calls;
      checki "attempt" 1 attempt;
      Error "nope")
  in
  checki "single attempt" 1 !calls;
  checkb "last error returned" true (r = Error "nope")

let test_retry_succeeds_after_failures () =
  Clock.with_fake (fun _ ->
      let p = Retry.make ~max_attempts:4 ~base_s:0.001 () in
      let calls = ref 0 in
      let r = Retry.run p ~key:3 (fun ~attempt ->
          incr calls;
          if attempt < 3 then Error "transient" else Ok attempt)
      in
      checki "three attempts" 3 !calls;
      checkb "success result" true (r = Ok 3);
      (* backoff slept through the fake clock: time moved forward by
         exactly backoff(1) + backoff(2) *)
      let expected = Retry.backoff_s p ~key:3 ~attempt:1 +. Retry.backoff_s p ~key:3 ~attempt:2 in
      checkf "slept the deterministic backoffs" expected (!Clock.now ()))

let test_retry_exhaustion_keeps_last_error () =
  Clock.with_fake (fun _ ->
      let p = Retry.make ~max_attempts:3 ~base_s:0.0001 () in
      let calls = ref 0 in
      let r = Retry.run p ~key:0 (fun ~attempt ->
          incr calls;
          Error (Printf.sprintf "fail-%d" attempt))
      in
      checki "all attempts spent" 3 !calls;
      checkb "last error" true (r = Error "fail-3"))

let test_retry_backoff_deterministic_and_bounded () =
  let p = Retry.make ~max_attempts:5 ~base_s:0.002 ~multiplier:2.0 ~jitter:0.5 ~seed:9 () in
  for attempt = 1 to 4 do
    let b1 = Retry.backoff_s p ~key:11 ~attempt in
    let b2 = Retry.backoff_s p ~key:11 ~attempt in
    checkf (Printf.sprintf "pure attempt %d" attempt) b1 b2;
    let nominal = 0.002 *. (2.0 ** float_of_int (attempt - 1)) in
    checkb "within jitter band" true (b1 >= 0.5 *. nominal && b1 <= 1.5 *. nominal)
  done;
  (* distinct keys draw from distinct streams *)
  let distinct = ref false in
  for key = 0 to 7 do
    if Retry.backoff_s p ~key ~attempt:1 <> Retry.backoff_s p ~key:100 ~attempt:1 then
      distinct := true
  done;
  checkb "keys decorrelate" true !distinct

let test_retry_validation () =
  checkb "zero attempts" true (raises_invalid (fun () -> Retry.make ~max_attempts:0 ()));
  checkb "negative base" true
    (raises_invalid (fun () -> Retry.make ~max_attempts:2 ~base_s:(-0.1) ()));
  checkb "multiplier < 1" true
    (raises_invalid (fun () -> Retry.make ~max_attempts:2 ~multiplier:0.5 ()));
  checkb "jitter > 1" true
    (raises_invalid (fun () -> Retry.make ~max_attempts:2 ~jitter:1.5 ()));
  checkb "attempt 0 backoff" true
    (raises_invalid (fun () -> Retry.backoff_s Retry.none ~key:0 ~attempt:0))

(* ------------------------------------------------------------------ *)
(* Breaker *)

let tripping_config =
  Breaker.make_config ~window:8 ~threshold:0.5 ~min_samples:4 ~cooldown_s:10.0 ~probes:2 ()

let trip br =
  for _ = 1 to 4 do
    checkb "admitted while closed" true (Breaker.allow br);
    Breaker.record br ~ok:false
  done

let test_breaker_trips_at_threshold () =
  let br = Breaker.create tripping_config in
  checkb "starts closed" true (Breaker.state br = Breaker.Closed);
  trip br;
  checkb "open after threshold" true (Breaker.state br = Breaker.Open);
  checkb "rejects while open" false (Breaker.allow br);
  checki "one trip" 1 (Breaker.opens br)

let test_breaker_needs_min_samples () =
  let br = Breaker.create tripping_config in
  for _ = 1 to 3 do
    ignore (Breaker.allow br);
    Breaker.record br ~ok:false
  done;
  checkb "still closed below min_samples" true (Breaker.state br = Breaker.Closed);
  checkf "failure rate" 1.0 (Breaker.failure_rate br)

let test_breaker_halfopen_recovery () =
  Clock.with_fake (fun advance ->
      let br = Breaker.create tripping_config in
      trip br;
      checkb "open rejects" false (Breaker.allow br);
      advance 10.5;
      (* cooldown elapsed: the next allow takes a half-open probe slot *)
      checkb "probe admitted" true (Breaker.allow br);
      checkb "half-open" true (Breaker.state br = Breaker.Half_open);
      Breaker.record br ~ok:true;
      checkb "second probe admitted" true (Breaker.allow br);
      Breaker.record br ~ok:true;
      checkb "closed after probe successes" true (Breaker.state br = Breaker.Closed);
      checkf "window reset" 0.0 (Breaker.failure_rate br))

let test_breaker_halfopen_failure_reopens () =
  Clock.with_fake (fun advance ->
      let br = Breaker.create tripping_config in
      trip br;
      advance 10.5;
      checkb "probe admitted" true (Breaker.allow br);
      Breaker.record br ~ok:false;
      checkb "re-opened" true (Breaker.state br = Breaker.Open);
      checkb "rejects again" false (Breaker.allow br);
      checki "two trips" 2 (Breaker.opens br);
      (* the cooldown restarted at the re-open *)
      advance 5.0;
      checkb "still cooling down" false (Breaker.allow br);
      advance 5.5;
      checkb "half-open again" true (Breaker.allow br))

let test_breaker_window_rate () =
  let br = Breaker.create (Breaker.make_config ~window:4 ~threshold:0.99 ~min_samples:4 ()) in
  ignore (Breaker.allow br); Breaker.record br ~ok:false;
  ignore (Breaker.allow br); Breaker.record br ~ok:false;
  ignore (Breaker.allow br); Breaker.record br ~ok:true;
  ignore (Breaker.allow br); Breaker.record br ~ok:true;
  checkf "2/4 failed" 0.5 (Breaker.failure_rate br);
  (* two more successes slide the failures out of the window *)
  ignore (Breaker.allow br); Breaker.record br ~ok:true;
  ignore (Breaker.allow br); Breaker.record br ~ok:true;
  checkf "window slid" 0.0 (Breaker.failure_rate br);
  checkb "never opened" true (Breaker.state br = Breaker.Closed)

let test_breaker_config_validation () =
  checkb "zero window" true (raises_invalid (fun () -> Breaker.make_config ~window:0 ()));
  checkb "threshold 0" true (raises_invalid (fun () -> Breaker.make_config ~threshold:0.0 ()));
  checkb "threshold > 1" true (raises_invalid (fun () -> Breaker.make_config ~threshold:1.1 ()));
  checkb "negative cooldown" true
    (raises_invalid (fun () -> Breaker.make_config ~cooldown_s:(-1.0) ()));
  checkb "zero probes" true (raises_invalid (fun () -> Breaker.make_config ~probes:0 ()))

(* ------------------------------------------------------------------ *)
(* Shed *)

let test_shed_queue_depth () =
  let cfg = Shed.make_config ~max_queue:5 () in
  checkb "under limit admitted" false
    (Shed.decide cfg ~queued:5 ~remaining_s:infinity ~est_cost_s:0.0);
  checkb "over limit shed" true (Shed.decide cfg ~queued:6 ~remaining_s:infinity ~est_cost_s:0.0)

let test_shed_deadline_feasibility () =
  let cfg = Shed.make_config ~headroom:2.0 () in
  checkb "infeasible shed" true (Shed.decide cfg ~queued:0 ~remaining_s:0.015 ~est_cost_s:0.01);
  checkb "feasible admitted" false
    (Shed.decide cfg ~queued:0 ~remaining_s:0.025 ~est_cost_s:0.01);
  checkb "no estimate admits" false
    (Shed.decide cfg ~queued:0 ~remaining_s:0.0001 ~est_cost_s:0.0);
  checkb "unbounded admits" false
    (Shed.decide cfg ~queued:0 ~remaining_s:infinity ~est_cost_s:10.0);
  checkb "negative max_queue" true (raises_invalid (fun () -> Shed.make_config ~max_queue:(-1) ()))

(* ------------------------------------------------------------------ *)
(* Rejection + Chaos plans *)

let test_rejection_names () =
  checki "four kinds" 4 (List.length Rejection.all);
  checks "timeout counter" "guard.timeouts" (Rejection.counter Rejection.Timed_out);
  checks "shed counter" "guard.sheds" (Rejection.counter Rejection.Shed);
  checks "breaker counter" "guard.breaker_opens" (Rejection.counter Rejection.Breaker_open);
  checks "lost counter" "guard.worker_lost" (Rejection.counter Rejection.Worker_lost);
  List.iter (fun r -> checkb "printable" true (String.length (Rejection.to_string r) > 0))
    Rejection.all

let test_chaos_plan_deterministic () =
  let a = Chaos.plan ~fail_rate:0.3 ~fail_attempts:2 ~qstall_rate:0.2 ~qstall_s:0.001 ~seed:7 () in
  let b = Chaos.plan ~fail_rate:0.3 ~fail_attempts:2 ~qstall_rate:0.2 ~qstall_s:0.001 ~seed:7 () in
  let hit = ref 0 in
  for q = 0 to 999 do
    checki "fails pure" (Chaos.query_fails a ~q) (Chaos.query_fails b ~q);
    checkf "stalls pure" (Chaos.query_stall_s a ~q) (Chaos.query_stall_s b ~q);
    if Chaos.query_fails a ~q > 0 then incr hit
  done;
  (* a 0.3 rate over 1000 queries lands well inside [150, 450] *)
  checkb "rate roughly honored" true (!hit > 150 && !hit < 450);
  checkb "hit queries eat fail_attempts" true
    (Chaos.query_fails a ~q:0 = 0 || Chaos.query_fails a ~q:0 = 2)

let test_chaos_validation_and_presets () =
  checkb "rate > 1" true (raises_invalid (fun () -> Chaos.plan ~fail_rate:1.5 ~seed:1 ()));
  checkb "rate < 0" true (raises_invalid (fun () -> Chaos.plan ~crash_rate:(-0.1) ~seed:1 ()));
  checkb "fail_attempts 0" true
    (raises_invalid (fun () -> Chaos.plan ~fail_attempts:0 ~seed:1 ()));
  checkb "none is none" true (Chaos.is_none Chaos.none);
  checki "five presets" 5 (List.length (Chaos.presets ~seed:3));
  (match Chaos.preset_of_string ~seed:3 "storm" with
  | Ok p -> checks "storm label" "storm" (Chaos.label p)
  | Error _ -> Alcotest.fail "storm preset missing");
  checkb "unknown preset" true (Result.is_error (Chaos.preset_of_string ~seed:3 "hurricane"));
  checkb "policy presets" true
    (List.map fst (Policy.presets ~batch_budget_s:1.0) = [ "off"; "serving"; "strict" ]);
  checkb "off is off" true (Policy.is_off Policy.off);
  checkb "serving not off" false (Policy.is_off Policy.serving)

(* ------------------------------------------------------------------ *)
(* Domain_pool chaos *)

let test_pool_chaos_exactly_once () =
  with_pool ~domains:4 (fun pool ->
      let chaos = Pool.chaos_plan ~crash_rate:1.0 ~seed:5 () in
      let n = 500 in
      let hits = Array.make n 0 in
      let burn () =
        (* a few microseconds per index, so doomed workers claim chunks
           before the surviving caller drains the whole counter *)
        let s = ref 0.0 in
        for k = 1 to 2000 do s := !s +. sqrt (float_of_int k) done;
        ignore (Sys.opaque_identity !s)
      in
      let stats =
        Pool.parallel_for_stats ~chunk:1 ~chaos pool ~n (fun i ->
            burn ();
            hits.(i) <- hits.(i) + 1)
      in
      Array.iteri (fun i c -> checki (Printf.sprintf "index %d once" i) 1 c) hits;
      (* crash_rate 1.0 seals every worker lane's fate at job start; the
         caller lane survives by construction and drains the requeue *)
      checki "all worker lanes lost" 3 stats.Pool.lost_lanes;
      checkb "work requeued" true (stats.Pool.requeued > 0))

let test_pool_chaos_results_unchanged () =
  with_pool ~domains:4 (fun pool ->
      let n = 300 in
      let plain = Array.make n 0 in
      Pool.parallel_for pool ~n (fun i -> plain.(i) <- i * i);
      let chaotic = Array.make n 0 in
      let chaos = Pool.chaos_plan ~crash_rate:0.5 ~stall_rate:0.2 ~stall_s:0.0005 ~seed:11 () in
      ignore (Pool.parallel_for_stats ~chunk:2 ~chaos pool ~n (fun i -> chaotic.(i) <- i * i));
      checkb "results identical under chaos" true (plain = chaotic))

let test_pool_reusable_after_chaos () =
  with_pool ~domains:3 (fun pool ->
      let chaos = Pool.chaos_plan ~crash_rate:1.0 ~seed:2 () in
      let stats = Pool.parallel_for_stats ~chunk:1 ~chaos pool ~n:100 (fun _ -> ()) in
      checkb "lanes were lost" true (stats.Pool.lost_lanes > 0);
      (* chaos-free run on the same pool: full width, clean stats *)
      let total = Atomic.make 0 in
      let stats2 = Pool.parallel_for_stats pool ~n:64 (fun _ -> Atomic.incr total) in
      checki "second run covers everything" 64 (Atomic.get total);
      checki "no losses without chaos" 0 stats2.Pool.lost_lanes;
      checki "no requeues without chaos" 0 stats2.Pool.requeued)

let test_pool_exception_under_chaos () =
  with_pool ~domains:3 (fun pool ->
      let chaos = Pool.chaos_plan ~crash_rate:0.5 ~seed:4 () in
      let raised =
        try
          ignore
            (Pool.parallel_for_stats ~chunk:1 ~chaos pool ~n:200 (fun i ->
                 if i = 153 then failwith "poisoned"));
          false
        with Failure m -> m = "poisoned"
      in
      checkb "body exception beats chaos" true raised;
      (* regression: a poisoned + chaotic run must leave the pool usable *)
      let ok = Array.make 32 false in
      Pool.parallel_for pool ~n:32 (fun i -> ok.(i) <- true);
      Array.iter (checkb "usable after poisoned chaos run" true) ok)

let test_pool_stats_clean_without_chaos () =
  with_pool ~domains:2 (fun pool ->
      let stats = Pool.parallel_for_stats pool ~n:50 (fun _ -> ()) in
      checkb "no_stats" true (stats = Pool.no_stats));
  checkb "chaos_plan validates rates" true
    (raises_invalid (fun () -> Pool.chaos_plan ~crash_rate:2.0 ~seed:1 ()))

let test_pool_chaos_stalls_counted () =
  with_pool ~domains:2 (fun pool ->
      let chaos = Pool.chaos_plan ~stall_rate:1.0 ~stall_s:0.0002 ~seed:6 () in
      let stats = Pool.parallel_for_stats ~chunk:8 ~chaos pool ~n:64 (fun _ -> ()) in
      checkb "stalls counted" true (stats.Pool.stalls > 0);
      checki "stalls lose no lanes" 0 stats.Pool.lost_lanes)

(* ------------------------------------------------------------------ *)
(* Engine guarded path *)

let test_guarded_off_bit_identical () =
  let apsp = prepared_graph 21 ~n:70 in
  let sch = agm_scheme apsp in
  let pairs = Experiment.default_pairs ~seed:22 apsp ~count:300 in
  let reference = Simulator.measure_all apsp sch pairs in
  List.iter
    (fun domains ->
      List.iter
        (fun cache ->
          with_pool ~domains (fun pool ->
              let engine = Engine.create ~cache ~pool () in
              let outcomes, _, gstats = Engine.run_guarded engine apsp sch pairs in
              let unwrapped =
                Array.map
                  (function Ok m -> m | Error _ -> Alcotest.fail "rejection with guards off")
                  outcomes
              in
              checkb
                (Printf.sprintf "bit-identical (domains=%d cache=%d)" domains cache)
                true
                (unwrapped = reference);
              checki "all ok" (Array.length pairs) gstats.Engine.ok))
        [ 0; 256 ])
    [ 1; 2; 4 ]

let test_guarded_zero_budget_times_out () =
  let apsp = prepared_graph 23 ~n:40 in
  let sch = Baseline_tree.build apsp in
  let pairs = Experiment.default_pairs ~seed:24 apsp ~count:100 in
  with_pool ~domains:2 (fun pool ->
      let engine = Engine.create ~policy:(Policy.make ~batch_budget_s:0.0 ()) ~pool () in
      let outcomes, _, gstats = Engine.run_guarded engine apsp sch pairs in
      Array.iter
        (fun o -> checkb "timed out" true (o = Error Rejection.Timed_out))
        outcomes;
      checki "tally timed_out" 100 gstats.Engine.timed_out;
      checki "tally ok" 0 gstats.Engine.ok)

let test_guarded_flaky_lost_vs_retry_heals () =
  let apsp = prepared_graph 25 ~n:50 in
  let sch = Baseline_tree.build apsp in
  let pairs = Experiment.default_pairs ~seed:26 apsp ~count:200 in
  let chaos = Chaos.plan ~fail_rate:1.0 ~fail_attempts:1 ~seed:8 () in
  with_pool ~domains:2 (fun pool ->
      (* no retry: every query's single attempt eats the injected fault *)
      let engine = Engine.create ~pool () in
      let outcomes, _, gstats = Engine.run_guarded ~chaos engine apsp sch pairs in
      Array.iter (fun o -> checkb "lost" true (o = Error Rejection.Worker_lost)) outcomes;
      checki "all lost" 200 gstats.Engine.worker_lost;
      (* one retry absorbs a 1-attempt transient fault completely *)
      let healed =
        Engine.create ~policy:(Policy.make ~retry:(Retry.make ~max_attempts:2 ~base_s:0.0 ()) ())
          ~pool ()
      in
      let outcomes, _, gstats = Engine.run_guarded ~chaos healed apsp sch pairs in
      Array.iter (fun o -> checkb "healed" true (Result.is_ok o)) outcomes;
      checki "all ok" 200 gstats.Engine.ok;
      checki "one extra attempt per query" 200 gstats.Engine.retries)

let test_guarded_lost_set_is_deterministic () =
  let apsp = prepared_graph 27 ~n:60 in
  let sch = Baseline_tree.build apsp in
  let pairs = Experiment.default_pairs ~seed:28 apsp ~count:400 in
  let chaos = Chaos.plan ~fail_rate:0.4 ~fail_attempts:1 ~seed:13 () in
  let run domains =
    with_pool ~domains (fun pool ->
        let engine = Engine.create ~pool () in
        let outcomes, _, _ = Engine.run_guarded ~chaos engine apsp sch pairs in
        Array.map tag outcomes)
  in
  let one = run 1 and four = run 4 in
  checkb "lost set invariant across widths" true (one = four);
  (* and it is exactly the set the plan says *)
  Array.iteri
    (fun q t ->
      let expected = if Chaos.query_fails chaos ~q > 0 then "lost" else "ok" in
      checks (Printf.sprintf "query %d" q) expected t)
    one

let test_guarded_breaker_cuts_off_shard () =
  let apsp = prepared_graph 29 ~n:40 in
  let sch = Baseline_tree.build apsp in
  let pairs = Experiment.default_pairs ~seed:30 apsp ~count:20 in
  let chaos = Chaos.plan ~fail_rate:1.0 ~fail_attempts:1 ~seed:17 () in
  let policy =
    Policy.make
      ~breaker:(Breaker.make_config ~window:8 ~threshold:1.0 ~min_samples:4 ~cooldown_s:1e9 ())
      ()
  in
  with_pool ~domains:1 (fun pool ->
      let engine = Engine.create ~policy ~pool () in
      let outcomes, _, gstats = Engine.run_guarded ~chaos engine apsp sch pairs in
      (* single shard: 4 failures trip the breaker, the rest are cut off *)
      checki "losses before trip" 4 gstats.Engine.worker_lost;
      checki "breaker rejects the rest" 16 gstats.Engine.breaker_open;
      Array.iteri
        (fun q o -> checks (Printf.sprintf "query %d" q)
            (if q < 4 then "lost" else "breaker") (tag o))
        outcomes;
      checkb "breaker reports open" true (Engine.breaker_state engine ~shard:0 = Some Breaker.Open))

let test_guarded_shed_under_queue_limit () =
  let apsp = prepared_graph 31 ~n:40 in
  let sch = Baseline_tree.build apsp in
  let pairs = Experiment.default_pairs ~seed:32 apsp ~count:50 in
  let policy = Policy.make ~shed:(Shed.make_config ~max_queue:0 ()) () in
  with_pool ~domains:1 (fun pool ->
      let engine = Engine.create ~policy ~pool () in
      let outcomes, _, gstats = Engine.run_guarded engine apsp sch pairs in
      (* queue depth 0: only the shard's last query is admitted *)
      checki "one served" 1 gstats.Engine.ok;
      checki "rest shed" 49 gstats.Engine.shed;
      checkb "last query is the served one" true (Result.is_ok outcomes.(49)))

let test_guarded_outcomes_partition () =
  let apsp = prepared_graph 33 ~n:60 in
  let sch = agm_scheme apsp in
  let pairs = Experiment.default_pairs ~seed:34 apsp ~count:300 in
  let chaos =
    match Chaos.preset_of_string ~seed:42 "storm" with Ok c -> c | Error e -> failwith e
  in
  with_pool ~domains:4 (fun pool ->
      let engine = Engine.create ~policy:Policy.serving ~pool () in
      let outcomes, m, g = Engine.run_guarded ~chaos engine apsp sch pairs in
      checki "metrics count" 300 m.Engine.queries;
      checki "outcomes total" 300 (Array.length outcomes);
      checki "tally partitions queries" 300
        (g.Engine.ok + g.Engine.timed_out + g.Engine.shed + g.Engine.breaker_open
       + g.Engine.worker_lost);
      (* tally matches a recount of the outcome array *)
      let recount t = Array.fold_left (fun n o -> if tag o = t then n + 1 else n) 0 outcomes in
      checki "ok recount" g.Engine.ok (recount "ok");
      checki "lost recount" g.Engine.worker_lost (recount "lost");
      checki "breaker recount" g.Engine.breaker_open (recount "breaker"))

(* The chain's cost estimate and the engine's latency run on the
   process clock: on a fake clock where every query costs 0.3 s, a 1 s
   batch budget with headroom 2 serves queries 0 and 1 and sheds the
   rest, since 0.4 s remaining < 2 x 0.3 s. *)
let fake_cost_batch policy =
  Clock.with_fake (fun advance ->
      with_pool ~domains:1 (fun pool ->
          let engine = Engine.create ~policy ~pool () in
          Engine.run_custom engine ~n:16 ~placeholder:(0, 0)
            ~measure:(fun s d ->
              advance 0.3;
              (s, d))
            (Array.init 8 (fun i -> (i, i + 1)))))

let test_guarded_shed_on_fake_clock () =
  let outcomes, _, g =
    fake_cost_batch
      (Policy.make ~batch_budget_s:1.0 ~shed:(Shed.make_config ~headroom:2.0 ()) ())
  in
  checki "two served" 2 g.Engine.ok;
  checki "six shed" 6 g.Engine.shed;
  checki "none timed out" 0 g.Engine.timed_out;
  Array.iteri
    (fun q o -> checks (Printf.sprintf "query %d" q) (if q < 2 then "ok" else "shed") (tag o))
    outcomes

let test_guarded_latency_on_fake_clock () =
  let _, m, g = fake_cost_batch Policy.off in
  checki "all served" 8 g.Engine.ok;
  checkf "p50 is the fake cost" 0.3 m.Engine.latency.Cr_util.Stats.p50;
  checkf "min is the fake cost" 0.3 m.Engine.latency.Cr_util.Stats.min;
  checkf "max is the fake cost" 0.3 m.Engine.latency.Cr_util.Stats.max;
  checkf "wall time is the fake total" 2.4 m.Engine.wall_s

(* ------------------------------------------------------------------ *)
(* Serve + Chaos_sweep *)

let test_serve_guarded_report () =
  let apsp = prepared_graph 39 ~n:60 in
  let sch = agm_scheme apsp in
  let chaos = Chaos.plan ~fail_rate:0.5 ~fail_attempts:1 ~seed:5 () in
  let r =
    Serve.run ~policy:Policy.off ~chaos ~guard_label:"off" ~domains:2 ~seed:7 ~queries:300
      ~workload:"test" apsp sch
  in
  checki "queries" 300 r.Serve.queries;
  checkb "some queries lost" true (r.Serve.guards.Engine.worker_lost > 0);
  checki "ok + rejected = queries" 300 (r.Serve.guards.Engine.ok + Serve.rejected r);
  checki "delivered only counts served" r.Serve.delivered
    (min r.Serve.delivered r.Serve.guards.Engine.ok);
  checks "chaos label carried" (Chaos.label chaos) r.Serve.chaos_label;
  (* the JSON line is strict JSON *)
  match Jsonl.validate (Serve.report_to_json r) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid serve JSON: %s" msg

let test_serve_default_is_plain () =
  let apsp = prepared_graph 41 ~n:50 in
  let sch = Baseline_tree.build apsp in
  let plain = Serve.run ~domains:2 ~seed:9 ~queries:200 ~workload:"test" apsp sch in
  checki "everything served" 200 plain.Serve.guards.Engine.ok;
  checki "nothing rejected" 0 (Serve.rejected plain);
  checks "guard label off" "off" plain.Serve.guard_label;
  checks "chaos label none" "none" plain.Serve.chaos_label;
  (* same routing quality across pool widths under default guards: the
     determinism contract extended through Serve *)
  let wide = Serve.run ~domains:4 ~seed:9 ~queries:200 ~workload:"test" apsp sch in
  checki "delivered invariant" plain.Serve.delivered wide.Serve.delivered;
  checkf "stretch invariant" plain.Serve.stretch_mean wide.Serve.stretch_mean

let test_chaos_sweep_grid () =
  let apsp = prepared_graph 43 ~n:40 in
  let sch = Baseline_tree.build apsp in
  let cells =
    Chaos_sweep.sweep ~chaos_seed:42 ~batch_budget_s:0.5 ~domains:2 ~seed:11 ~queries:60
      ~workload:"test" apsp sch
  in
  checki "5 chaos x 3 guard cells" 15 (List.length cells);
  List.iter
    (fun (c : Chaos_sweep.cell) ->
      let r = c.Chaos_sweep.report in
      checki
        (Printf.sprintf "cell %s/%s partitions" r.Serve.chaos_label r.Serve.guard_label)
        60
        (r.Serve.guards.Engine.ok + Serve.rejected r);
      match Jsonl.validate (Chaos_sweep.cell_to_json c) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "invalid cell JSON: %s" msg)
    cells;
  (* the chaos-free, guard-free corner serves everything *)
  match cells with
  | first :: _ ->
      let r = first.Chaos_sweep.report in
      checks "first cell chaos" "none" r.Serve.chaos_label;
      checks "first cell guards" "off" r.Serve.guard_label;
      checki "clean corner serves all" 60 r.Serve.guards.Engine.ok
  | [] -> Alcotest.fail "empty sweep"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* served_ratio on a real zero-query cell, and on the same cell with
   its tally set to a non-empty one *)
let test_chaos_sweep_served_ratio_empty_cell () =
  let apsp = prepared_graph 45 ~n:30 in
  let empty =
    Chaos_sweep.run_cell ~domains:1 ~seed:13 ~queries:0 ~workload:"test" ~guard_label:"off"
      Policy.off Chaos.none apsp (Baseline_tree.build apsp)
  in
  let with_tally ~queries ~ok =
    let r = empty.Chaos_sweep.report in
    let guards = { r.Serve.guards with Engine.ok } in
    { empty with Chaos_sweep.report = { r with Serve.queries; guards } }
  in
  checkb "normal cell has a ratio" true
    (Chaos_sweep.served_ratio (with_tally ~queries:10 ~ok:7) = Some 0.7);
  checkb "all-served cell is 1.0" true
    (Chaos_sweep.served_ratio (with_tally ~queries:10 ~ok:10) = Some 1.0);
  (* the bug this pins: a zero-query cell used to report 1.0 — an empty
     cell rendered as perfect delivery *)
  checkb "zero-query cell has no ratio" true (Chaos_sweep.served_ratio empty = None);
  let j = Chaos_sweep.cell_to_json empty in
  checkb "json null, not 1.0" true (contains j "\"served_ratio\":null");
  checkb "queries=0 marks the emptiness" true (contains j "\"queries\":0");
  match Jsonl.validate j with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid empty-cell JSON: %s" msg

(* ------------------------------------------------------------------ *)
(* Backoff (restart supervision) *)

module Backoff = Cr_guard.Backoff

let test_backoff_delays_grow_and_cap () =
  let b = Backoff.make ~base_s:0.01 ~multiplier:2.0 ~cap_s:0.05 ~max_restarts:10 () in
  checkf "first delay is the base" 0.01 (Backoff.delay_s b ~restart:1);
  checkf "doubles" 0.02 (Backoff.delay_s b ~restart:2);
  checkf "doubles again" 0.04 (Backoff.delay_s b ~restart:3);
  checkf "capped" 0.05 (Backoff.delay_s b ~restart:4);
  checkf "stays capped" 0.05 (Backoff.delay_s b ~restart:9)

let test_backoff_exhaustion_boundary () =
  let b = Backoff.make ~max_restarts:3 () in
  checkb "within budget" false (Backoff.exhausted b ~restart:3);
  checkb "one past the cap" true (Backoff.exhausted b ~restart:4)

let test_backoff_validation () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  ignore (Backoff.make ());
  ignore Backoff.repair;
  raises "Backoff.make: negative base_s" (fun () ->
      ignore (Backoff.make ~base_s:(-0.01) ()));
  raises "Backoff.make: multiplier must be >= 1" (fun () ->
      ignore (Backoff.make ~multiplier:0.5 ()));
  raises "Backoff.make: cap_s must be >= base_s" (fun () ->
      ignore (Backoff.make ~base_s:0.1 ~cap_s:0.01 ()));
  raises "Backoff.make: negative max_restarts" (fun () ->
      ignore (Backoff.make ~max_restarts:(-1) ()))

let () =
  Alcotest.run "guard"
    [
      ( "deadline",
        [
          Alcotest.test_case "unbounded" `Quick test_deadline_unbounded;
          Alcotest.test_case "zero budget" `Quick test_deadline_zero_budget;
          Alcotest.test_case "fake clock expiry" `Quick test_deadline_fake_clock;
          Alcotest.test_case "negative budget rejected" `Quick test_deadline_negative_raises;
          Alcotest.test_case "fake clock restores" `Quick test_fake_clock_restores;
          Alcotest.test_case "monotonic never goes backwards" `Quick
            test_monotonic_never_goes_backwards;
          Alcotest.test_case "default sleep advances clock" `Quick
            test_default_sleep_advances_clock;
        ] );
      ( "retry",
        [
          Alcotest.test_case "none is identity" `Quick test_retry_none_is_identity;
          Alcotest.test_case "succeeds after failures" `Quick test_retry_succeeds_after_failures;
          Alcotest.test_case "exhaustion keeps last error" `Quick
            test_retry_exhaustion_keeps_last_error;
          Alcotest.test_case "backoff deterministic + bounded" `Quick
            test_retry_backoff_deterministic_and_bounded;
          Alcotest.test_case "validation" `Quick test_retry_validation;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick test_breaker_trips_at_threshold;
          Alcotest.test_case "needs min samples" `Quick test_breaker_needs_min_samples;
          Alcotest.test_case "half-open recovery" `Quick test_breaker_halfopen_recovery;
          Alcotest.test_case "half-open failure reopens" `Quick
            test_breaker_halfopen_failure_reopens;
          Alcotest.test_case "window slides" `Quick test_breaker_window_rate;
          Alcotest.test_case "config validation" `Quick test_breaker_config_validation;
        ] );
      ( "shed",
        [
          Alcotest.test_case "queue depth" `Quick test_shed_queue_depth;
          Alcotest.test_case "deadline feasibility" `Quick test_shed_deadline_feasibility;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "delays grow and cap" `Quick test_backoff_delays_grow_and_cap;
          Alcotest.test_case "exhaustion boundary" `Quick test_backoff_exhaustion_boundary;
          Alcotest.test_case "validation" `Quick test_backoff_validation;
        ] );
      ( "chaos_plan",
        [
          Alcotest.test_case "rejection names" `Quick test_rejection_names;
          Alcotest.test_case "deterministic" `Quick test_chaos_plan_deterministic;
          Alcotest.test_case "validation + presets" `Quick test_chaos_validation_and_presets;
        ] );
      ( "pool_chaos",
        [
          Alcotest.test_case "exactly once under crashes" `Quick test_pool_chaos_exactly_once;
          Alcotest.test_case "results unchanged" `Quick test_pool_chaos_results_unchanged;
          Alcotest.test_case "reusable after chaos" `Quick test_pool_reusable_after_chaos;
          Alcotest.test_case "exception under chaos" `Quick test_pool_exception_under_chaos;
          Alcotest.test_case "clean stats without chaos" `Quick
            test_pool_stats_clean_without_chaos;
          Alcotest.test_case "stalls counted" `Quick test_pool_chaos_stalls_counted;
        ] );
      ( "engine_guarded",
        [
          Alcotest.test_case "off = bit-identical (3 widths x cache)" `Quick
            test_guarded_off_bit_identical;
          Alcotest.test_case "zero budget times out" `Quick test_guarded_zero_budget_times_out;
          Alcotest.test_case "flaky: lost vs retry heals" `Quick
            test_guarded_flaky_lost_vs_retry_heals;
          Alcotest.test_case "lost set deterministic" `Quick
            test_guarded_lost_set_is_deterministic;
          Alcotest.test_case "breaker cuts off shard" `Quick test_guarded_breaker_cuts_off_shard;
          Alcotest.test_case "shed under queue limit" `Quick test_guarded_shed_under_queue_limit;
          Alcotest.test_case "outcomes partition" `Quick test_guarded_outcomes_partition;
          Alcotest.test_case "shed on a fake clock" `Quick test_guarded_shed_on_fake_clock;
          Alcotest.test_case "latency on a fake clock" `Quick
            test_guarded_latency_on_fake_clock;
        ] );
      ( "serve_guarded",
        [
          Alcotest.test_case "report + json" `Quick test_serve_guarded_report;
          Alcotest.test_case "defaults are plain" `Quick test_serve_default_is_plain;
          Alcotest.test_case "chaos sweep grid" `Quick test_chaos_sweep_grid;
          Alcotest.test_case "served_ratio of an empty cell" `Quick
            test_chaos_sweep_served_ratio_empty_cell;
        ] );
    ]
