(* batch-eval: the research surface, in process.  [Serve.run] pushes
   Zipf(1.1) AGM06 routes through the engine, then [Oserve.run] pushes
   path-oracle queries, each on a pool of nproc lanes with a 4096-entry
   cache per lane — the code behind [crt serve] and [crt oracle].  No
   socket and no daemon, so engine changes show here and nowhere
   else. *)

open Perfbench
open Common
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Serve = Cr_engine.Serve
module Engine = Cr_engine.Engine
module Oserve = Cr_oracle.Oserve
module Path_oracle = Cr_oracle.Path_oracle
module Daemon = Cr_daemon.Daemon
open Compact_routing

let n = 1024

(* The timed phase is one round per second of [--seconds]; each serves
   a route batch and an oracle batch of fixed size, then times
   [latency_routes] single routes.  Fixed sizes make the answers digest
   identically on every run.  The host's memory-bound speed switches
   between a fast and a slow state every few seconds, so the figures
   pool many short windows spread over the run: a median over windows
   would snap to one state or the other.  The latency p99 alone is a
   median over windows, for the reason [Pct.windowed] gives. *)
let routes_per_round = 50_000

let oracle_queries_per_round = 100_000

let latency_routes = 8_000

let rounds o = o.seconds

let probes = 5

(* Builds per run; setup_s is their median.  A build takes about three
   seconds. *)
let setups = 3

let cache = 4096

(* From graph to last table. *)
let build g =
  let apsp = Apsp.compute_parallel g in
  let agm = Agm06.build ~params apsp in
  let oracle = Path_oracle.build ~k ~seed:params.Params.seed apsp in
  { Layers.apsp; agm; scheme = Agm06.scheme agm; oracle }

(* Builds the tables [setups] times, from graph to last table, and
   returns the last tables with the build times.  With [spans] every
   build is the spanned, profiled build of [Layers.build_path], and its
   per-layer figures come back as medians over the builds. *)
let setup ?spans g =
  let one () =
    match spans with
    | None ->
        Gc.compact ();
        let t0 = now () in
        let t = build g in
        (t, now () -. t0, [])
    | Some sp -> Layers.build_path sp g
  in
  let runs = List.init setups (fun _ -> one ()) in
  let t, _, _ = List.nth runs (setups - 1) in
  ( t,
    List.map (fun (_, s, _) -> s) runs,
    Layers.median_metrics (List.map (fun (_, _, ms) -> ms) runs) )

let domains = Domain.recommended_domain_count ()

type round = {
  rs : Serve.report;
  os : Oserve.report;
  secs : float;  (** both calls' time *)
}

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let queries xs = sum (fun x -> x.rs.Serve.queries + x.os.Oserve.queries) xs

(* Each round draws its own pairs. *)
let round_seed o r = (o.seed * 65_536) + r

(* One round's two batches, each timed around the whole call: pair
   generation, pool start and shutdown included, as a batch user waits
   for them. *)
let round ?spans o (t : Layers.tables) r =
  let timed name f =
    let t0 = now () in
    let x = f () in
    let t1 = now () in
    (match spans with
    | Some sp -> ignore (Spans.add sp ~name ~parent:(-1) ~req:r ~t0 ~t1)
    | None -> ());
    (x, t1 -. t0)
  in
  let seed = round_seed o r and workload = "pl:1024" in
  let rs, ts =
    timed "serve.run" (fun () ->
        Serve.run ~cache ~cache_mode:Engine.Lane ~domains ~seed ~queries:routes_per_round
          ~workload t.Layers.apsp t.Layers.scheme)
  in
  let os, tos =
    timed "oserve.run" (fun () ->
        Oserve.run ~cache ~cache_mode:Engine.Lane ~domains ~seed ~queries:oracle_queries_per_round
          ~workload t.Layers.apsp t.Layers.oracle)
  in
  { rs; os; secs = ts +. tos }

(* A round's own pairs, regenerated exactly as [Serve.run] draws them. *)
let pairs o (t : Layers.tables) r ~count =
  Cr_engine.Workload.generate ~connected_in:t.Layers.apsp (Cr_engine.Workload.Zipf 1.1)
    ~seed:(round_seed o r) ~n ~count

(* Per-query latency in microseconds: one route with its referee walk
   check ([Simulator.measure]), timed alone on this domain.  Oracle
   queries are left to [oracle.path_us]: mixed into one sample set, the
   two kinds would put the p50 at the edge between two distributions.
   The shared pool's idle worker is joined first, so this domain runs
   alone. *)
let latencies ?spans o (t : Layers.tables) r =
  Cr_util.Domain_pool.shutdown_shared ();
  Array.mapi
    (fun i (u, v) ->
      let t0 = now () in
      ignore (Simulator.measure t.Layers.apsp t.Layers.scheme u v);
      let t1 = now () in
      (match spans with
      | Some sp -> ignore (Spans.add sp ~name:"simulator.measure" ~parent:(-1) ~req:i ~t0 ~t1)
      | None -> ());
      1e6 *. (t1 -. t0))
    (pairs o t r ~count:latency_routes)

(* The timed phase: every round, then its latency window.  Throughput
   is every batch query over every batch call's time; the latency p50 is
   over every window's routes, the p99 the median of the windows'
   p99s. *)
let timed_phase ?spans o t =
  Gc.compact ();
  let rs = List.init (rounds o) (fun r -> (round ?spans o t r, latencies ?spans o t r)) in
  let xs = List.map fst rs in
  let secs = List.fold_left (fun acc x -> acc +. x.secs) 0.0 xs in
  (xs, float_of_int (queries xs) /. secs, Pct.windowed (List.map snd rs))

(* Freshness in process: from a mutation to the first answer on tables
   rebuilt for it, the daemon's repair step without the daemon. *)
let freshness (t : Layers.tables) muts =
  let rng = Cr_util.Rng.create graph_seed in
  let _, fresh, answers =
    List.fold_left
      (fun (apsp, fresh, answers) mu ->
        let t0 = now () in
        let apsp, _ = Apsp.repair_mutation apsp mu in
        let agm = Agm06.build ~params apsp in
        ignore (Path_oracle.build ~k ~seed:params.Params.seed apsp);
        let u = Cr_util.Rng.int rng n and v = Cr_util.Rng.int rng n in
        let m = Simulator.measure apsp (Agm06.scheme agm) u v in
        let s = now () -. t0 in
        ( apsp,
          s :: fresh,
          Printf.sprintf "probe %d %d delivered=%b cost=%.17g" u v m.Simulator.delivered
            m.Simulator.cost
          :: answers ))
      (t.Layers.apsp, [], []) muts
  in
  (List.rev fresh, List.rev answers)

(* The deterministic part of a round's reports; the digest covers
   these lines. *)
let report_lines x =
  let rs = x.rs and os = x.os in
  [
    Printf.sprintf
      "route queries=%d ok=%d delivered=%d stretch_mean=%.17g stretch_p99=%.17g hits=%d misses=%d"
      rs.Serve.queries rs.Serve.guards.Engine.ok rs.Serve.delivered rs.Serve.stretch_mean
      rs.Serve.stretch_p99 rs.Serve.cache_hits rs.Serve.cache_misses;
    Printf.sprintf
      "oracle queries=%d ok=%d served=%d stretch_mean=%.17g stretch_max=%.17g hits=%d misses=%d entries=%d bits=%d"
      os.Oserve.queries os.Oserve.ok os.Oserve.guards.Engine.ok os.Oserve.stretch_mean
      os.Oserve.stretch_max os.Oserve.cache_hits os.Oserve.cache_misses os.Oserve.size_entries
      os.Oserve.storage_bits;
  ]

(* Routes not delivered and oracle answers the referee rejected; both
   counts are taken among the served queries, so a refused query fails
   too. *)
let failures xs =
  sum (fun x -> x.rs.Serve.queries - x.rs.Serve.delivered + (x.os.Oserve.queries - x.os.Oserve.ok)) xs

let latency_metrics qps (lat : Pct.t) =
  [
    metric "throughput_qps" "1/s" qps;
    metric "latency_p50_us" "us" lat.Pct.p50;
    metric "latency_p99_us" "us" lat.Pct.p99;
  ]

(* Reads replayed through the daemon query path per [--seconds]. *)
let replay_reads_per_second = 1_000

(* The daemon's query path without a socket: the 50/40/10 read mix
   through a [Daemon.t] with the CLI's default flags, spanned by
   [Layers.replay_line] with its child calls on [t], which is what the
   daemon builds for its epoch 0.  Its cache is off, so every answer is
   computed and the children stand for work the daemon did.  Every
   answer is refereed. *)
let daemon_replay o sp (t : Layers.tables) g =
  let d = Daemon.create ~params g in
  let r = Layers.replayer ~t sp d g in
  let lines = read_lines ~seed:o.seed ~n ~count:(o.seconds * replay_reads_per_second) () in
  let rejected = ref 0 in
  Array.iteri
    (fun i line ->
      if not (Layers.referee t line (Layers.replay_line r line)) then incr rejected;
      if (i + 1) mod stats_every = 0 then ignore (Layers.replay_line r "stats"))
    lines;
  Daemon.close d;
  Cr_util.Domain_pool.shutdown_shared ();
  log "daemon replay: %d reads, %d rejected by the referee" (Array.length lines) !rejected;
  (Layers.replay_metrics r, Array.length lines, !rejected)

(* The traced run: the setup builds were already the spanned build
   path; here the pair generator, the timed phase again with a span
   around each engine call and each timed query, the daemon query path,
   and the repair chain of the freshness mutations. *)
let traced o sp g t build muts xs e2e =
  let pool = Cr_util.Domain_pool.create ~domains in
  ignore
    (Spans.time sp ~name:"workload.generate" ~parent:(-1) ~req:(-1) (fun () ->
         Cr_engine.Workload.generate ~pool ~connected_in:t.Layers.apsp
           (Cr_engine.Workload.Zipf 1.1) ~seed:(round_seed o 0) ~n
           ~count:routes_per_round));
  Cr_util.Domain_pool.shutdown pool;
  let traced_phase = ref None in
  let runtime =
    Layers.runtime ~reqs:(queries xs) (fun () -> traced_phase := Some (timed_phase ~spans:sp o t))
  in
  let xs2, qps2, lat2 = Option.get !traced_phase in
  let lines2 = List.concat_map report_lines xs2 in
  log "digest traced batches %s" (Answers.digest lines2);
  check (lines2 = List.concat_map report_lines xs) "traced batches answered differently";
  let query, replayed, rejected = daemon_replay o sp t g in
  let repair = Layers.repair_chain sp t muts in
  let hits = sum (fun x -> x.rs.Serve.cache_hits) xs2 in
  let misses = sum (fun x -> x.rs.Serve.cache_misses) xs2 in
  (* single-lane [Simulator.measure] time over every routed query,
     estimated from the timed ones, over the time the lanes had *)
  let measure_s = Spans.durations sp "simulator.measure" in
  let engine_s = List.fold_left (fun acc x -> acc +. x.rs.Serve.wall_s) 0.0 xs2 in
  let efficiency =
    Pct.mean measure_s
    *. float_of_int (sum (fun x -> x.rs.Serve.queries) xs2)
    /. (engine_s *. float_of_int domains)
  in
  Layers.write_spans o.workload sp;
  ( Layers.complete
      ((("engine.cache_hit_rate", Layers.ratio hits (hits + misses))
        :: ("engine.parallel_efficiency", efficiency)
        :: ("workload.generate_s", Layers.median_s sp "workload.generate")
        :: ("engine.batch_s", Pct.median (List.map (fun x -> x.rs.Serve.wall_s) xs2))
        :: ("oserve.batch_s", Pct.median (List.map (fun x -> x.os.Oserve.wall_s) xs2))
        :: ("trace.spans", float_of_int (Spans.count sp))
        :: Layers.overhead ~untraced:e2e ~traced:(latency_metrics qps2 lat2))
      @ query @ runtime @ build @ repair),
    replayed,
    rejected )

let run o =
  let g = graph_file "graph.txt" (power_law ~n) in
  (* fixed like the graph *)
  let muts = Mutgen.generate ~seed:graph_seed g ~count:probes in
  let spans = if o.trace then Some (Spans.create ()) else None in
  let t, setup, build = setup ?spans g in
  let xs, qps, lat = timed_phase o t in
  let fresh, probe_answers = freshness t muts in
  let rss_mb = Proc.vm_hwm_mb "self" in
  let failed =
    failures xs
    + List.length (List.filter (fun a -> Answers.field a "delivered" <> Some "true") probe_answers)
  in
  let attempted = queries xs + probes in
  let lines = List.concat_map report_lines xs in
  log "provenance %s"
    (provenance o
       ~argv:[ "in-process"; "domains=" ^ string_of_int domains; "cache=4096"; "cache-mode=lane" ]
       ~n:(Graph.n g) ~m:(Graph.m g)
       ~samples:
         [ ("setup_s", List.length setup); ("latency", lat.Pct.count);
           ("latency_windows", rounds o); ("rounds", rounds o);
           ("freshness", List.length fresh); ("queries", queries xs) ]);
  List.iter (fun l -> log "answer %s" l) (lines @ probe_answers);
  log "digest %s (batch reports)" (Answers.digest lines);
  log "samples setup_s %s" (String.concat " " (List.map num setup));
  log "error_rate %s ratio (%d of %d)" (num (float_of_int failed /. float_of_int attempted)) failed
    attempted;
  let e2e =
    (metric "setup_s" "s" (Pct.median setup) :: metric "peak_rss_mb" "MB" rss_mb
    :: latency_metrics qps lat)
    @ [
        metric "freshness_p50_s" "s" (Pct.median fresh);
        metric "stretch_mean" "ratio"
          (Pct.mean (List.map (fun x -> x.rs.Serve.stretch_mean) xs));
        metric "table_bits_mean" "bits" (Storage.mean_node_bits t.Layers.scheme.Scheme.storage);
      ]
  in
  if not o.trace then (e2e, attempted, failed)
  else begin
    print_metrics e2e;
    let layers, att2, failed2 = traced o (Option.get spans) g t build muts xs e2e in
    (layers, attempted + att2, failed + failed2)
  end
