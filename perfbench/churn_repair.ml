(* churn-repair: writes beside reads.  [crt daemon] with a journal
   (fsync every record), a snapshot every 8 mutations and a 4096-entry
   answer cache, on a pl:512 graph with integer weights 1..7.  One
   connection, closed loop: send one seeded mutation, keep issuing the
   50/40/10 route/dist/path read mix until a reply cites the epoch that
   contains it, then send the next.  Repair runs beside the reads on the
   same two vCPUs.  The whole pass runs twice, each time on a daemon of
   its own. *)

open Perfbench
open Common
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Daemon = Cr_daemon.Daemon

let n = 512

(* The churn pass runs [passes] times, each time on a fresh daemon from
   the same graph, mutation list and reads, and the figures pool the
   passes.  One pass's read rate differs from the next by about a
   tenth, even within one run; pooling two passes evens that out, while
   the traced run, which replays one pass in process, stays within its
   time limit.  Every pass must answer identically. *)
let passes = 2

(* Daemons spawned per pass, the last of which serves it; setup_s is
   the median of every spawn's setup.  A spawn takes about a second. *)
let setups_per_pass = 3

(* One mutation per pass per [passes] seconds of [--seconds]: a repair
   here takes about a second, so the passes together take about
   [--seconds].  The list is fixed like the graph, so every pass
   repairs the same mutations into the same final graph; [--seed]
   varies the reads. *)
let mutations o = max 1 (o.seconds / passes)

(* Seeded reads sent after the final sync and compared with a fresh
   daemon on the replayed mutation list.  Their endpoints are uniform,
   so the sample covers the whole final graph, and its stretch does not
   hinge on the few pairs that Zipf draws most. *)
let sample = 4000

let cache = 4096

type flow = {
  setup : float list;
  argv : string array;
  log : Socket.log;
  secs : float;  (** the churn pass's wall time *)
  churned : Socket.churned;
  sync : string;
  sample_log : Socket.log;
  rss_mb : float;
  threads : int;
  stats_json : string;
}

type inputs = {
  g : Graph.t;
  reads : string array;
  muts : Graph.mutation list;
  sample_lines : string array;
}

let inputs o =
  let g = graph_file "graph.txt" (integer_weights (power_law ~n)) in
  {
    g;
    reads = read_lines ~seed:o.seed ~n ~count:(mutations o * 30_000) ();
    muts = Mutgen.generate ~seed:graph_seed g ~count:(mutations o);
    sample_lines =
      read_lines ~dist:Cr_engine.Workload.Uniform ~seed:(o.seed lxor 0x5a3e) ~n ~count:sample ();
  }

let flow o inp ~setups ~first ?spans () =
  let argv_of i =
    Socket.daemon_argv o ~graph:"graph.txt"
      [ "--journal"; Printf.sprintf "journal-%d.log" (first + i); "--snapshots";
        Printf.sprintf "snaps-%d" (first + i); "--snapshot-every"; string_of_int snapshot_every;
        "--cache"; string_of_int cache ]
  in
  let d, setup = Socket.start ~count:setups argv_of in
  let s = Socket.connect ?spans d in
  let log = Socket.new_log () in
  (* from a collected heap, so the client's own GC does not pay for
     earlier phases' garbage while it measures *)
  Gc.compact ();
  let t0 = now () in
  let churned = Socket.churn s { Socket.src = inp.reads; pos = 0 } log inp.muts in
  let secs = now () -. t0 in
  let sync = Client.call s.Socket.c "sync" in
  let sample_log = Socket.new_log () in
  Array.iter (fun l -> ignore (Socket.read s sample_log l)) inp.sample_lines;
  let pid = string_of_int d.Proc.pid in
  let rss_mb = Proc.vm_hwm_mb pid and threads = Proc.threads pid in
  let stats_json = Socket.finish s in
  { setup; argv = argv_of setups; log; secs; churned; sync; sample_log; rss_mb; threads; stats_json }

(* Reads race repair, so which epoch answers them is timing; the digest
   covers what does not race: the acks, the sync and the post-sync
   sample. *)
let digest ~acks ~sync ~sample = Answers.digest (acks @ (sync :: sample))

let flow_digest f =
  digest ~acks:f.churned.Socket.acks ~sync:f.sync
    ~sample:(Socket.replies f.sample_log)

(* Over every pass: reads over the passes' time, and percentiles of
   every read. *)
let latency fs =
  let rtt = Socket.rtt_pct (List.map (fun f -> f.log) fs) in
  let reads = List.fold_left (fun acc f -> acc + f.log.Socket.len) 0 fs in
  [
    metric "throughput_qps" "1/s"
      (float_of_int reads /. List.fold_left (fun acc f -> acc +. f.secs) 0.0 fs);
    metric "latency_p50_us" "us" rtt.Pct.p50;
    metric "latency_p99_us" "us" rtt.Pct.p99;
  ]

let errors f =
  Socket.count_errors f.log
  + List.length (List.filter (fun a -> not (Answers.is_ok a)) f.churned.Socket.acks)

(* The post-sync sample, answered again by a fresh daemon built on the
   benchmark's own replay of the mutation list; epochs aside, every
   answer must match. *)
let referee_sample inp f =
  let d = Daemon.create ~params (Graph.apply_all inp.g inp.muts) in
  let bad = ref 0 in
  Array.iteri
    (fun i line ->
      let want = String.concat "\n" (Daemon.handle d line) in
      if Answers.strip_epoch want <> Answers.strip_epoch f.sample_log.Socket.replies.(i) then
        incr bad)
    inp.sample_lines;
  Daemon.close d;
  (* no worker domain may outlive the referee: a later traced pass
     measures from this process *)
  Cr_util.Domain_pool.shutdown_shared ();
  !bad

(* The recorded session, replayed in process in its original order
   through a [Daemon.t] with the CLI's flags.  Before each mutation the
   replay waits for the previous one's epoch, as the client did. *)
let replay sp inp f =
  let d =
    Daemon.create ~params ~journal:"replay-daemon.log" ~snapshot_dir:"replay-daemon-snaps"
      ~snapshot_every ~cache inp.g
  in
  let journal = Cr_daemon.Journal.create "replay-journal.log" in
  let r = Layers.replayer ~journal sp d inp.g in
  let reads = ref 0 in
  let read line =
    let reply = Layers.replay_line r line in
    incr reads;
    if !reads mod stats_every = 0 then ignore (Layers.replay_line r "stats");
    reply
  in
  let rec go i at muts acks =
    match (at, muts) with
    | a :: at', mu :: muts' when a = i ->
        if acks <> [] then ignore (Daemon.sync d);
        go i at' muts' (Layers.replay_line r (Graph.mutation_to_string mu) :: acks)
    | _ ->
        if i < f.log.Socket.len then begin
          ignore (read f.log.Socket.lines.(i));
          go (i + 1) at muts acks
        end
        else List.rev acks
  in
  let acks = go 0 f.churned.Socket.at inp.muts [] in
  let sync = Daemon.sync_response (Daemon.sync d) in
  let sample = Array.to_list (Array.map read inp.sample_lines) in
  let reqs = min 20_000 f.log.Socket.len in
  let runtime =
    Layers.runtime ~reqs (fun () ->
        for i = 0 to reqs - 1 do
          ignore (Daemon.handle_line d ~lineno:i f.log.Socket.lines.(i))
        done)
  in
  Daemon.close d;
  Cr_daemon.Journal.close journal;
  (r, digest ~acks ~sync ~sample, runtime)

let traced o inp f e2e =
  let sp = Spans.create () in
  let f2 = flow o inp ~setups:1 ~first:(passes * setups_per_pass) ~spans:sp () in
  let d2 = flow_digest f2 in
  let t, _, build = Layers.build_path sp inp.g in
  let r, d3, runtime = replay sp inp f in
  let repair = Layers.repair_chain sp t inp.muts in
  log "digest traced socket pass %s, in-process replay %s" d2 d3;
  check (d2 = flow_digest f) "traced socket pass answered differently";
  check (d3 = flow_digest f) "in-process replay answered differently";
  let query = Layers.replay_metrics r in
  let json key = Option.value ~default:0.0 (Answers.json_float f.stats_json key) in
  let rtt2 = (Socket.rtt_pct [ f2.log ]).Pct.p50 in
  Layers.write_spans o.workload sp;
  ( Layers.complete
      ((("server.rtt_overhead_us", rtt2 -. List.assoc "daemon.handle_us" query)
        :: ("runtime.daemon_threads", float_of_int f.threads)
        :: ("ttcache.hit_rate", json "cache_hit_rate")
        :: ("ttcache.aged", json "cache_aged")
        :: ("trace.spans", float_of_int (Spans.count sp))
        :: Layers.overhead ~untraced:e2e ~traced:(latency [ f2 ]))
      @ query
      @ runtime @ build @ repair),
    f2.log.Socket.len + f2.sample_log.Socket.len + List.length inp.muts,
    errors f2 )

let run o =
  let inp = inputs o in
  (* A traced run reports no end-to-end figure, only traced minus
     untraced, so one untraced pass beside its one traced pass will do;
     it keeps the traced run well inside its time limit. *)
  let fs =
    List.init
      (if o.trace then 1 else passes)
      (fun p -> flow o inp ~setups:setups_per_pass ~first:(p * setups_per_pass) ())
  in
  let f = List.hd fs in
  let m = List.length inp.muts in
  List.iter
    (fun g ->
      check (g.sync = Printf.sprintf "ok sync epoch=%d backlog=0" m) ("unexpected sync reply: " ^ g.sync);
      check (flow_digest g = flow_digest f) "the passes answered differently")
    fs;
  (* the passes digest alike, so refereeing the first covers them all *)
  let mismatches = referee_sample inp f in
  let sum h = List.fold_left (fun acc g -> acc + h g) 0 fs in
  let attempted = sum (fun g -> g.log.Socket.len + g.sample_log.Socket.len + m) in
  let failed = sum errors + mismatches in
  let setup = List.concat_map (fun g -> g.setup) fs in
  let fresh = List.concat_map (fun g -> g.churned.Socket.fresh) fs in
  let rtt = Socket.rtt_pct (List.map (fun g -> g.log) fs) in
  (* from the post-sync sample, answered on the final epoch: reads that
     race repair are answered by whichever epoch is serving *)
  let stretches = Socket.route_stretches f.sample_log in
  log "provenance %s"
    (provenance o ~argv:(Array.to_list f.argv) ~n:(Graph.n inp.g) ~m:(Graph.m inp.g)
       ~samples:
         [ ("passes", List.length fs); ("setup_s", List.length setup); ("latency", rtt.Pct.count);
           ("freshness", List.length fresh); ("stretch", List.length stretches) ]);
  log "digest %s (%d acks, sync, %d post-sync answers; epochs stripped)" (flow_digest f) m
    f.sample_log.Socket.len;
  log "samples setup_s %s" (String.concat " " (List.map num setup));
  log "samples peak_rss_mb %s" (String.concat " " (List.map (fun g -> num g.rss_mb) fs));
  log "error_rate %s ratio (%d of %d)" (num (float_of_int failed /. float_of_int attempted)) failed
    attempted;
  let e2e =
    (metric "setup_s" "s" (Pct.median setup)
    :: metric "peak_rss_mb" "MB" (Pct.mean (List.map (fun g -> g.rss_mb) fs))
    :: latency fs)
    @ [
        metric "freshness_p50_s" "s" (Pct.median fresh);
        metric "stretch_mean" "ratio" (Pct.mean stretches);
        metric "table_bits_mean" "bits" (Socket.table_bits_mean (Apsp.compute inp.g));
      ]
  in
  if not o.trace then (e2e, attempted, failed)
  else begin
    print_metrics e2e;
    let layers, att2, failed2 = traced o inp f e2e in
    (layers, attempted + att2, failed + failed2)
  end
