(* Per-layer measurements for the traced runs.

   Spans are recorded only here, in the benchmark, around calls into
   each module's public functions; no library code is instrumented.
   Where a layer runs inside another call that cannot be opened up
   (parse, route, walk check, oracle path and the staleness Dijkstra
   inside [Daemon.handle_line]), the benchmark makes the same call on
   the same inputs right after the parent returns and records it as a
   child span.  A layer's self time is its span minus its children. *)

open Perfbench
open Common
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Gio = Cr_graph.Gio
module Counters = Cr_obs.Counters
module Daemon = Cr_daemon.Daemon
module Protocol = Cr_daemon.Protocol
module Journal = Cr_daemon.Journal
module Snapshot = Cr_daemon.Snapshot
module Dirty = Cr_daemon.Dirty
module Path_oracle = Cr_oracle.Path_oracle
open Compact_routing

(* Every per-layer metric, in BENCHMARK.json order, with its unit.  A
   traced run reports all of them; a layer the workload does not
   exercise reads 0. *)
let all =
  [
    ("server.rtt_overhead_us", "us");
    ("protocol.parse_us", "us");
    ("daemon.handle_us", "us");
    ("daemon.self_us", "us");
    ("daemon.stats_us", "us");
    ("agm06.route_us", "us");
    ("simulator.check_walk_us", "us");
    ("agm06.hops_mean", "hops");
    ("agm06.phases_mean", "phases");
    ("agm06.fallback_share", "ratio");
    ("oracle.path_us", "us");
    ("oracle.levels_mean", "levels");
    ("dijkstra.staleness_us", "us");
    ("daemon.stale_share", "ratio");
    ("runtime.alloc_words_per_req", "words");
    ("runtime.minor_gcs_per_kreq", "count");
    ("runtime.daemon_threads", "count");
    ("ttcache.hit_rate", "ratio");
    ("ttcache.aged", "count");
    ("engine.cache_hit_rate", "ratio");
    ("engine.parallel_efficiency", "ratio");
    ("workload.generate_s", "s");
    ("engine.batch_s", "s");
    ("oserve.batch_s", "s");
    ("build.accounted_share", "ratio");
    ("apsp.compute_s", "s");
    ("agm06.decomposition_s", "s");
    ("agm06.landmark_hierarchy_s", "s");
    ("agm06.nearby_sets_s", "s");
    ("agm06.sparse_trees_s", "s");
    ("agm06.dense_covers_s", "s");
    ("agm06.local_records_s", "s");
    ("oracle.build_s", "s");
    ("oracle.entries", "count");
    ("apsp.live_mb", "MB");
    ("agm06.live_mb", "MB");
    ("oracle.live_mb", "MB");
    ("storage.bits.fallback", "bits");
    ("storage.bits.sparse_trees", "bits");
    ("storage.bits.dense_covers", "bits");
    ("storage.bits.local", "bits");
    ("apsp.repair_s", "s");
    ("repair.sources_mean", "count");
    ("dirty.trees_mean", "ratio");
    ("dirty.covers_mean", "ratio");
    ("journal.append_us", "us");
    ("snapshot.write_ms", "ms");
    ("trace.overhead.throughput_qps", "1/s");
    ("trace.overhead.latency_p50_us", "us");
    ("trace.overhead.latency_p99_us", "us");
    ("trace.spans", "count");
  ]

(* The full list, taking each value from [measured] and 0 elsewhere. *)
let complete measured =
  List.iter (fun (name, _) -> check (List.mem_assoc name all) ("unlisted layer metric " ^ name)) measured;
  List.map
    (fun (name, unit_) ->
      metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name measured)))
    all

let median_us sp name =
  match Spans.durations sp name with [] -> 0.0 | xs -> 1e6 *. Pct.median xs

let median_s sp name = match Spans.durations sp name with [] -> 0.0 | xs -> Pct.median xs

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---- build path ---------------------------------------------------------- *)

type tables = {
  apsp : Apsp.t;
  agm : Agm06.t;
  scheme : Scheme.t;
  oracle : Path_oracle.t;
}

let metric_name s = String.map (function '-' -> '_' | c -> c) s

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* Graph to last table, exactly as batch-eval's setup builds it, inside
   a [build] span with a child span per step and the
   [Agm06.build ~profile] stages.  Each step's memory is what its result
   holds beyond the earlier results, measured afterwards by walking the
   tables so the timing is left alone. *)
let build_path sp g =
  Gc.compact ();
  let b = Spans.start sp ~name:"build" ~parent:(-1) ~req:(-1) in
  let child name f = Spans.time sp ~name ~parent:b ~req:(-1) f in
  let apsp = child "apsp.compute_parallel" (fun () -> Apsp.compute_parallel g) in
  let profile = Cr_obs.Profile.create () in
  let agm = child "agm06.build" (fun () -> Agm06.build ~params ~profile apsp) in
  let oracle =
    child "path_oracle.build" (fun () -> Path_oracle.build ~k ~seed:params.Params.seed apsp)
  in
  Spans.stop sp b;
  let scheme = Agm06.scheme agm in
  let last name = Spans.last_duration sp name in
  let apsp_s = last "apsp.compute_parallel" and oracle_s = last "path_oracle.build" in
  let stages = Cr_obs.Profile.stages profile in
  let accounted =
    (apsp_s +. oracle_s +. List.fold_left (fun acc (_, secs, _) -> acc +. secs) 0.0 stages)
    /. last "build"
  in
  log "build path: %.3f s, of which apsp.compute_parallel %.3f s, agm06 stages %.3f s, path_oracle.build %.3f s"
    (last "build") apsp_s (Cr_obs.Profile.total_seconds profile) oracle_s;
  let w1 = Obj.reachable_words (Obj.repr apsp) in
  let w2 = Obj.reachable_words (Obj.repr (apsp, agm)) in
  let w3 = Obj.reachable_words (Obj.repr (apsp, agm, oracle)) in
  ( { apsp; agm; scheme; oracle },
    last "build",
    [
      ("build.accounted_share", accounted);
      ("apsp.compute_s", apsp_s);
      ("oracle.build_s", oracle_s);
      ("oracle.entries", float_of_int (Path_oracle.size_entries oracle));
      ("apsp.live_mb", mb w1);
      ("agm06.live_mb", mb (w2 - w1));
      ("oracle.live_mb", mb (w3 - w2));
    ]
    @ List.map (fun (stage, secs, _) -> ("agm06." ^ metric_name stage ^ "_s", secs)) stages
    @ List.map
        (fun (cat, bits) -> ("storage.bits." ^ metric_name cat, float_of_int bits))
        (Storage.categories scheme.Scheme.storage) )

(* Per-name medians over several builds' metrics. *)
let median_metrics = function
  | [] -> []
  | first :: _ as runs ->
      List.map (fun (name, _) -> (name, Pct.median (List.map (List.assoc name) runs))) first

(* ---- query path ------------------------------------------------------------ *)

let route_safe (scheme : Scheme.t) u v =
  try scheme.Scheme.route u v
  with Not_found | Invalid_argument _ -> { Scheme.walk = [ u ]; delivered = false; phases_used = 0 }

(* Direct calls into the routing and oracle layers, spanned, with the
   exact counts their answers carry. *)
type probe = {
  sp : Spans.t;
  t : tables;
  mutable routes : int;
  mutable hops : int;
  mutable phases : int;
  mutable paths : int;
  mutable levels : int;
}

let probe sp t = { sp; t; routes = 0; hops = 0; phases = 0; paths = 0; levels = 0 }

let route_children p ~parent ~req u v =
  let child name f = Spans.time p.sp ~name ~parent ~req f in
  let rt = child "agm06.route" (fun () -> route_safe p.t.scheme u v) in
  ignore
    (child "simulator.check_walk" (fun () ->
         Simulator.check_walk (Apsp.graph p.t.apsp) ~src:u ~dst:v ~delivered:rt.Scheme.delivered
           rt.Scheme.walk));
  p.routes <- p.routes + 1;
  p.hops <- p.hops + (List.length rt.Scheme.walk - 1);
  p.phases <- p.phases + rt.Scheme.phases_used

let path_children p ~parent ~req u v =
  match Spans.time p.sp ~name:"path_oracle.path" ~parent ~req (fun () -> Path_oracle.path p.t.oracle u v) with
  | Some a ->
      p.paths <- p.paths + 1;
      p.levels <- p.levels + a.Path_oracle.levels
  | None -> ()

let probe_metrics p =
  let s = Agm06.stats p.t.agm in
  [
    ("agm06.route_us", median_us p.sp "agm06.route");
    ("simulator.check_walk_us", median_us p.sp "simulator.check_walk");
    ("agm06.hops_mean", ratio p.hops p.routes);
    ("agm06.phases_mean", ratio p.phases p.routes);
    ("agm06.fallback_share", ratio s.Agm06.fallback_resolved s.Agm06.routes);
    ("oracle.path_us", median_us p.sp "path_oracle.path");
    ("oracle.levels_mean", ratio p.levels p.paths);
  ]

(* Referees one read answer against the benchmark's own ground truth:
   [dist] equals the APSP distance, a [path] walk is a real walk that
   re-prices to its estimate within 2k-1 of the distance, a [route] was
   delivered. *)
let referee (t : tables) line reply =
  match (Answers.tokens line, Answers.tokens reply) with
  | [ "route"; _; _ ], "ok" :: "route" :: _ -> Answers.field reply "delivered" = Some "true"
  | [ "dist"; u; v ], [ "ok"; "dist"; u'; v'; d; _ ] ->
      u = u' && v = v'
      && float_of_string_opt d = Some (Apsp.distance t.apsp (int_of_string u) (int_of_string v))
  | [ "path"; u; v ], "ok" :: "path" :: _ -> (
      let u = int_of_string u and v = int_of_string v in
      match (Answers.field reply "est", Answers.field reply "walk") with
      | Some est, Some walk ->
          let est = float_of_string est in
          let walk = List.map int_of_string (String.split_on_char '-' walk) in
          let c = Simulator.check_walk (Apsp.graph t.apsp) ~src:u ~dst:v ~delivered:true walk in
          Simulator.is_delivered c.Simulator.outcome
          && Float.abs (c.Simulator.checked_cost -. est) <= 1e-9 *. Float.max 1.0 est
          && est <= float_of_int ((2 * k) - 1) *. Apsp.distance t.apsp u v *. (1.0 +. 1e-9)
      | _ -> false)
  | _ -> false

type replay = {
  sp : Spans.t;
  d : Daemon.t;
  probe : probe option;
      (** on tables identical to the serving epoch's; for a daemon
          without a cache that is never mutated *)
  journal : Journal.writer option;  (** scratch journal for the mutation children *)
  mutable live : Graph.t;
  mutable lineno : int;
  mutable reads : int;
  mutable stale_seen : int;
  mutable stale : int;
}

let replayer ?t ?journal sp d g =
  { sp; d; probe = Option.map (probe sp) t; journal; live = g; lineno = 0; reads = 0;
    stale_seen = 0; stale = 0 }

(* One protocol line through [Daemon.handle_line], spanned, followed by
   its child calls.  Returns the daemon's reply. *)
let replay_line r line =
  r.lineno <- r.lineno + 1;
  let req = r.lineno in
  let t0 = now () in
  let replies, _ = Daemon.handle_line r.d ~lineno:req line in
  let t1 = now () in
  if line = "stats" then ignore (Spans.add r.sp ~name:"daemon.stats" ~parent:(-1) ~req ~t0 ~t1)
  else begin
    let h = Spans.add r.sp ~name:"daemon.handle" ~parent:(-1) ~req ~t0 ~t1 in
    let child name f = Spans.time r.sp ~name ~parent:h ~req f in
    match child "protocol.parse" (fun () -> Protocol.parse ~lineno:req line) with
    | Ok (Some (Protocol.Route (u, v) | Protocol.Dist (u, v))) ->
        r.reads <- r.reads + 1;
        Option.iter (fun p -> route_children p ~parent:h ~req u v) r.probe;
        (* the staleness sampler re-priced this answer with a Dijkstra
           on the live graph *)
        let seen = Counters.get (Daemon.counters r.d) "daemon.stale.samples" in
        if seen > r.stale_seen then begin
          r.stale_seen <- seen;
          r.stale <- r.stale + 1;
          ignore (child "dijkstra.run" (fun () -> Dijkstra.run (Daemon.live_graph r.d) u))
        end
    | Ok (Some (Protocol.Path (u, v))) ->
        r.reads <- r.reads + 1;
        Option.iter (fun p -> path_children p ~parent:h ~req u v) r.probe
    | Ok (Some (Protocol.Mutate mu)) -> (
        r.live <- Graph.apply r.live mu;
        match r.journal with
        | Some w ->
            child "journal.append" (fun () -> Journal.append w mu);
            if Journal.records w mod snapshot_every = 0 then
              ignore
                (child "snapshot.write" (fun () ->
                     Snapshot.write ~dir:"replay-snaps"
                       {
                         Gio.epoch = Daemon.epoch_id r.d;
                         journal_records = Journal.records w;
                         journal_offset = Journal.bytes w;
                         graph = r.live;
                       }))
        | None -> ())
    | _ -> ()
  end;
  String.concat "\n" replies

(* Metrics of the daemon query path replayed so far.  Self time needs
   every child of [Daemon.handle_line]: only a replay with a probe has
   the routing and oracle children, and only a cache-less daemon
   computes every answer those children stand for. *)
let replay_metrics r =
  [
    ("protocol.parse_us", median_us r.sp "protocol.parse");
    ("daemon.handle_us", median_us r.sp "daemon.handle");
    ("daemon.stats_us", median_us r.sp "daemon.stats");
    ("dijkstra.staleness_us", median_us r.sp "dijkstra.run");
    ("journal.append_us", median_us r.sp "journal.append");
    ("snapshot.write_ms", 1e3 *. median_s r.sp "snapshot.write");
    ("daemon.stale_share", ratio r.stale r.reads);
  ]
  @
  match r.probe with
  | Some p ->
      ("daemon.self_us", 1e6 *. Pct.median (Spans.self_times r.sp "daemon.handle"))
      :: probe_metrics p
  | None -> []

(* Allocation and minor collections per request of [f] over [reqs]
   requests, from [Gc.quick_stat] deltas. *)
let runtime ~reqs f =
  let s0 = Gc.quick_stat () in
  f ();
  let s1 = Gc.quick_stat () in
  let words =
    s1.Gc.minor_words -. s0.Gc.minor_words +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  [
    ("runtime.alloc_words_per_req", words /. float_of_int reqs);
    ( "runtime.minor_gcs_per_kreq",
      1e3 *. float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections) /. float_of_int reqs );
  ]

(* ---- repair path ----------------------------------------------------------- *)

(* The daemon's repair of one-mutation batches, step by step: blast
   radius against the serving scheme, incremental APSP repair, and the
   scheme rebuild that the next assessment is made against. *)
let repair_chain sp (t : tables) muts =
  let n = List.length muts in
  let _, _, sources, trees, covers =
    List.fold_left
      (fun (apsp, agm, sources, trees, covers) mu ->
        let agm = Lazy.force agm in
        let root name f = Spans.time sp ~name ~parent:(-1) ~req:(-1) f in
        let impact = root "dirty.assess" (fun () -> Dirty.assess agm apsp mu) in
        let apsp, recomputed = root "apsp.repair_mutation" (fun () -> Apsp.repair_mutation apsp mu) in
        let share part whole = ratio (List.length part) whole in
        let trees = trees +. share impact.Dirty.sparse_trees (Agm06.center_count agm) in
        let covers = covers +. share impact.Dirty.dense_covers (List.length (Agm06.cover_levels agm)) in
        (apsp, lazy (root "repair.agm06_build" (fun () -> Agm06.build ~params apsp)),
         sources + recomputed, trees, covers))
      (t.apsp, Lazy.from_val t.agm, 0, 0.0, 0.0) muts
  in
  if n = 0 then []
  else
    [
      ("apsp.repair_s", median_s sp "apsp.repair_mutation");
      ("repair.sources_mean", ratio sources n);
      ("dirty.trees_mean", trees /. float_of_int n);
      ("dirty.covers_mean", covers /. float_of_int n);
    ]

(* Traced minus untraced end-to-end figures. *)
let overhead ~untraced ~traced =
  let get ms name = (List.find (fun m -> m.name = name) ms).value in
  List.map
    (fun name -> ("trace.overhead." ^ name, get traced name -. get untraced name))
    [ "throughput_qps"; "latency_p50_us"; "latency_p99_us" ]

let write_spans workload sp =
  Spans.write sp (Printf.sprintf "../spans-%s.tsv" workload)
