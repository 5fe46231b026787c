(* Tests for the cr_daemon library: protocol parsing, the daemon's
   epoch lifecycle, repair equivalence (incremental repair converges to
   exactly the state a from-scratch build would produce), mid-repair
   serving under chaos, admission control, the checksummed mutation
   journal, snapshot checkpoints, crashpoint-injected recovery and
   repair-worker supervision. *)

module Rng = Cr_util.Rng
module Jsonl = Cr_util.Jsonl
module Graph = Cr_graph.Graph
module Gio = Cr_graph.Gio
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Generators = Cr_graph.Generators
module Guard = Cr_guard
module Daemon = Cr_daemon.Daemon
module Journal = Cr_daemon.Journal
module Snapshot = Cr_daemon.Snapshot
module Crashpoint = Cr_daemon.Crashpoint
module Protocol = Cr_daemon.Protocol
module Dirty = Cr_daemon.Dirty
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let mk_graph ?(n = 48) seed =
  let rng = Rng.create seed in
  let g = Generators.erdos_renyi rng ~n ~avg_degree:4.0 in
  (* integer weights >= 1: normalized, and mutations stay exact *)
  Graph.reweight g (fun _ _ _ -> 1.0 +. float_of_int (Rng.int rng 7))

let params = Params.scaled ~k:3 ()

(* a random mutation applicable to the current graph; mirrors the
   daemon's churn vocabulary, weights respect the normalization floor *)
let random_mutation rng g =
  let n = Graph.n g in
  let es = Array.of_list (Graph.edges g) in
  let w () = 1.0 +. float_of_int (Rng.int rng 7) in
  match Rng.int rng 5 with
  | 0 when Array.length es > 0 ->
      let u, v, _ = es.(Rng.int rng (Array.length es)) in
      Graph.Set_weight (u, v, w ())
  | 1 when Array.length es > 1 ->
      let u, v, _ = es.(Rng.int rng (Array.length es)) in
      Graph.Link_down (u, v)
  | 2 ->
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v && not (Graph.has_edge g u v) then Graph.Link_up (u, v, w ())
      else Graph.Node_up (Rng.int rng n)
  | 3 -> Graph.Node_down (Rng.int rng n)
  | _ -> Graph.Node_up (Rng.int rng n)

let feed d line =
  let rs = Daemon.handle d line in
  List.iter
    (fun r ->
      checkb
        (Printf.sprintf "response tagged: %s" r)
        true
        ((String.length r >= 3 && String.sub r 0 3 = "ok ")
        || (String.length r >= 4 && String.sub r 0 4 = "err ")))
    rs;
  rs

let feed1 d line = match feed d line with [ r ] -> r | rs -> String.concat "|" rs

(* One numeric field of a [stats] object, as rendered *)
let stats_field stats key =
  let tag = Printf.sprintf "\"%s\":" key in
  let nh = String.length stats and nt = String.length tag in
  let rec start i =
    if i + nt > nh then Alcotest.failf "no field %s in %s" key stats
    else if String.sub stats i nt = tag then i + nt
    else start (i + 1)
  in
  let i = start 0 in
  let rec stop j = if j < nh && stats.[j] <> ',' && stats.[j] <> '}' then stop (j + 1) else j in
  String.sub stats i (stop i - i)

let stats_int stats key = int_of_string (stats_field stats key)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_queries () =
  let ok line cmd =
    match Protocol.parse ~lineno:1 line with
    | Ok (Some c) -> checkb (Printf.sprintf "parse %S" line) true (c = cmd)
    | _ -> Alcotest.failf "parse %S failed" line
  in
  ok "route 3 7" (Protocol.Route (3, 7));
  ok "  dist 0 12  " (Protocol.Dist (0, 12));
  ok "path 2 5" (Protocol.Path (2, 5));
  ok "sync" Protocol.Sync;
  ok "stats" Protocol.Stats;
  ok "epoch" Protocol.Epoch;
  ok "help" Protocol.Help;
  ok "quit" Protocol.Quit;
  ok "exit" Protocol.Quit

let test_protocol_mutations () =
  let ok line mu =
    match Protocol.parse ~lineno:1 line with
    | Ok (Some (Protocol.Mutate m)) -> checkb (Printf.sprintf "parse %S" line) true (m = mu)
    | _ -> Alcotest.failf "parse %S: expected mutation" line
  in
  ok "setw 0 1 1.5" (Graph.Set_weight (0, 1, 1.5));
  ok "linkdown 4 2" (Graph.Link_down (4, 2));
  ok "linkup 1 9 2" (Graph.Link_up (1, 9, 2.0));
  ok "nodedown 5" (Graph.Node_down 5);
  ok "nodeup 5" (Graph.Node_up 5)

let test_protocol_blanks_and_comments () =
  List.iter
    (fun line ->
      match Protocol.parse ~lineno:1 line with
      | Ok None -> ()
      | _ -> Alcotest.failf "expected silent skip for %S" line)
    [ ""; "   "; "# comment"; "  # indented comment" ]

let test_protocol_errors_carry_line_numbers () =
  let err ~lineno line =
    match Protocol.parse ~lineno line with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "expected parse error for %S" line
  in
  checkb "unknown command" true (contains (err ~lineno:12 "frobnicate 1") "line 12");
  checkb "mentions token" true (contains (err ~lineno:12 "frobnicate 1") "frobnicate");
  (* mutation records go through the shared Gio grammar *)
  checkb "short setw" true (contains (err ~lineno:7 "setw 0 1") "line 7");
  checkb "bad weight" true (contains (err ~lineno:3 "linkup 0 1 heavy") "line 3");
  checkb "bad endpoint" true (contains (err ~lineno:9 "route 0") "line 9");
  checkb "non-integer" true (contains (err ~lineno:4 "dist a b") "line 4")

let test_daemon_counts_session_lines () =
  let d = Daemon.create ~staleness_every:0 ~params (mk_graph 3) in
  ignore (feed d "epoch");
  ignore (Daemon.handle d "# a comment also advances the line counter");
  let r = feed1 d "bogus" in
  Daemon.close d;
  checkb "err tagged" true (String.sub r 0 4 = "err ");
  checkb "third line" true (contains r "line 3")

(* ------------------------------------------------------------------ *)
(* Epoch lifecycle *)

let test_epoch_lifecycle () =
  let g = mk_graph 5 in
  let d = Daemon.create ~staleness_every:0 ~params g in
  checki "epoch 0" 0 (Daemon.epoch_id d);
  let u, v, _ = List.hd (Graph.edges g) in
  let r = feed1 d (Printf.sprintf "linkdown %d %d" u v) in
  checkb "mutate acked" true (contains r "ok mutate linkdown");
  (match Daemon.sync d with
  | Ok id -> checki "epoch advanced" 1 id
  | Error e -> Alcotest.failf "sync failed: %s" e);
  checki "epoch_id agrees" 1 (Daemon.epoch_id d);
  checki "backlog drained" 0 (Daemon.backlog d);
  checkb "live graph lost the edge" false (Graph.has_edge (Daemon.live_graph d) u v);
  let r = feed1 d "quit" in
  checkb "bye" true (contains r "ok bye");
  checkb "quitting" true (Daemon.quitting d);
  Daemon.close d

let test_mutation_validation () =
  let g = mk_graph 7 in
  let d = Daemon.create ~staleness_every:0 ~params g in
  let r = feed1 d "setw 9999 3 2" in
  checkb "range rejected" true (String.sub r 0 4 = "err ");
  (* weights below the normalization floor are refused: the scheme
     build requires min weight >= 1 *)
  let u, v, _ = List.hd (Graph.edges g) in
  let r = feed1 d (Printf.sprintf "setw %d %d 0.25" u v) in
  checkb "floor rejected" true (String.sub r 0 4 = "err ");
  checki "nothing queued" 0 (Daemon.backlog d);
  checki "epoch unchanged" 0 (Daemon.epoch_id d);
  Daemon.close d

let test_path_command () =
  let g = mk_graph 15 in
  let d = Daemon.create ~staleness_every:0 ~params g in
  let r = feed1 d "path 0 5" in
  checkb "tagged ok" true (String.sub r 0 8 = "ok path ");
  checkb "carries estimate" true (contains r " est=");
  checkb "carries walk" true (contains r " walk=");
  checkb "carries epoch" true (contains r " epoch=0");
  (* the walk's endpoints are the queried pair *)
  let walk_field =
    List.find_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some j when String.sub tok 0 j = "walk" ->
            Some (String.sub tok (j + 1) (String.length tok - j - 1))
        | _ -> None)
      (String.split_on_char ' ' r)
  in
  (match walk_field with
  | Some w -> (
      match String.split_on_char '-' w with
      | first :: _ :: _ as hops ->
          checks "walk starts at src" "0" first;
          checks "walk ends at dst" "5" (List.nth hops (List.length hops - 1))
      | _ -> Alcotest.failf "unexpected walk %S" w)
  | None -> Alcotest.failf "no walk field in %S" r);
  (* out-of-range endpoints are refused without touching the epoch *)
  let r = feed1 d "path 0 9999" in
  checkb "range rejected" true (String.sub r 0 4 = "err ");
  (* the oracle surface shows up in stats *)
  let stats = feed1 d "stats" in
  checkb "paths counted" true (contains stats "\"paths\":1");
  checkb "oracle sized" true (contains stats "\"oracle_entries\":");
  Daemon.close d

let test_stats_json_strict () =
  let d = Daemon.create ~staleness_every:0 ~params (mk_graph 9) in
  ignore (feed d "route 0 5");
  ignore (feed d "dist 0 5");
  (match Jsonl.validate (Daemon.stats_json d) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "stats json invalid: %s" e);
  let r = feed1 d "stats" in
  checkb "stats over protocol" true (contains r "\"epoch\":");
  Daemon.close d

(* ------------------------------------------------------------------ *)
(* Journal *)

let test_journal_replays () =
  let g = mk_graph 11 in
  let path = Filename.temp_file "crjournal" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let d = Daemon.create ~staleness_every:0 ~journal:path ~params g in
      let u, v, _ = List.hd (Graph.edges g) in
      ignore (feed d (Printf.sprintf "linkdown %d %d" u v));
      ignore (feed d (Printf.sprintf "linkup %d %d 3" u v));
      ignore (feed d "nodedown 0");
      (* rejected mutations must not reach the journal *)
      ignore (Daemon.handle d "setw 9999 0 1");
      (match Daemon.sync d with Ok _ -> () | Error e -> Alcotest.failf "sync: %s" e);
      let live = Daemon.live_graph d in
      Daemon.close d;
      let r = Journal.load path in
      checki "three journal records" 3 r.Journal.read_records;
      checkb "journal fully valid" true (r.Journal.truncation = None);
      let replayed = Graph.apply_all g r.Journal.mutations in
      checki "same m" (Graph.m live) (Graph.m replayed);
      Graph.iter_edges live (fun a b w ->
          checkb "same edges" true (Graph.edge_weight replayed a b = Some w)))

(* ------------------------------------------------------------------ *)
(* Mid-repair serving: the acceptance probe.  The repair hook blocks
   the worker domain, so the daemon is provably mid-repair while the
   foreground answers from epoch 0 — under the flaky chaos preset
   (transient query faults absorbed by retry) and a real deadline. *)

let wait_for ?(timeout_s = 5.0) f =
  let rec go n =
    if f () then true
    else if n <= 0 then false
    else begin
      Unix.sleepf 0.002;
      go (n - 1)
    end
  in
  go (int_of_float (timeout_s /. 0.002))

(* A repair hook that parks the worker until [release] is set;
   [in_repair] tells the test that the worker got there. *)
let held_repair () =
  let in_repair = Atomic.make false and release = Atomic.make false in
  let hook () =
    Atomic.set in_repair true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done
  in
  (hook, in_repair, release)

let test_probe_answered_mid_repair () =
  let g = mk_graph 13 ~n:64 in
  let hook, in_repair, release = held_repair () in
  let policy = { Guard.Policy.serving with Guard.Policy.query_budget_s = Some 2.0 } in
  let chaos = List.assoc "flaky" (Guard.Chaos.presets ~seed:5) in
  let d =
    Daemon.create ~policy ~chaos ~staleness_every:0 ~repair_hook:hook ~params g
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Daemon.close d)
    (fun () ->
      let u, v, _ = List.hd (Graph.edges g) in
      ignore (feed d (Printf.sprintf "linkdown %d %d" u v));
      checkb "repair started" true (wait_for (fun () -> Atomic.get in_repair));
      checkb "backlog visible" true (Daemon.backlog d >= 1);
      (* several probes: flaky injects transient faults on ~25% of
         queries; retry must absorb them and every answer must come
         from the last-good epoch, well within the deadline *)
      let t0 = Unix.gettimeofday () in
      for q = 0 to 9 do
        let r = feed1 d (Printf.sprintf "route %d %d" (q mod 8) (8 + q)) in
        checkb (Printf.sprintf "probe %d ok: %s" q r) true (contains r "ok route");
        checkb "old epoch" true (contains r "epoch=0")
      done;
      checkb "answered within deadline" true (Unix.gettimeofday () -. t0 < 2.0);
      Atomic.set release true;
      (match Daemon.sync d with
      | Ok id -> checki "repaired" 1 id
      | Error e -> Alcotest.failf "sync: %s" e);
      let r = feed1 d "route 0 9" in
      checkb "new epoch serves" true (contains r "epoch=1"))

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_shed_on_backlog () =
  let g = mk_graph 17 in
  let hook, in_repair, release = held_repair () in
  let policy = Guard.Policy.make ~shed:(Guard.Shed.make_config ~max_queue:0 ()) () in
  let d = Daemon.create ~policy ~staleness_every:0 ~repair_hook:hook ~params g in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Daemon.close d)
    (fun () ->
      let u, v, _ = List.hd (Graph.edges g) in
      ignore (feed d (Printf.sprintf "linkdown %d %d" u v));
      checkb "repair started" true (wait_for (fun () -> Atomic.get in_repair));
      let r = feed1 d "route 0 5" in
      checkb "shed under backlog" true (contains r "rejected=shed");
      Atomic.set release true;
      (match Daemon.sync d with Ok _ -> () | Error e -> Alcotest.failf "sync: %s" e);
      let r = feed1 d "route 0 5" in
      checkb "admitted once drained" true (contains r "ok route");
      checkb "sheds counted" true
        (Cr_obs.Counters.get (Daemon.counters d) "guard.sheds" >= 1))

let test_breaker_opens_under_persistent_faults () =
  let g = mk_graph 19 in
  (* every query fails more attempts than the (absent) retry allows,
     so each admitted query is lost; the breaker must open after
     min_samples and start rejecting up front *)
  let chaos = Guard.Chaos.plan ~label:"dead" ~fail_rate:1.0 ~fail_attempts:9 ~seed:1 () in
  let policy =
    Guard.Policy.make
      ~breaker:(Guard.Breaker.make_config ~window:8 ~min_samples:4 ~cooldown_s:60.0 ())
      ()
  in
  let d = Daemon.create ~policy ~chaos ~staleness_every:0 ~params g in
  let outcomes = List.init 12 (fun q -> feed1 d (Printf.sprintf "route 0 %d" (1 + q))) in
  Daemon.close d;
  checkb "early queries lost" true (contains (List.hd outcomes) "rejected=worker_lost");
  checkb "breaker eventually opens" true
    (List.exists (fun r -> contains r "rejected=breaker_open") outcomes)

(* [dist] prints the serving epoch's ground truth: it routes nothing and
   takes no cache slot, so a dist-only session leaves the cache untouched
   and answers byte-for-byte as a cache-off daemon does *)
let test_dist_bypasses_cache () =
  let n = 32 in
  let g = mk_graph ~n 29 in
  let rng = Rng.create 30 in
  let pairs = List.init 20 (fun _ -> (Rng.int rng n, Rng.int rng n)) in
  let lines =
    List.map (fun (u, v) -> Printf.sprintf "dist %d %d" u v) (pairs @ pairs @ [ (3, 3) ])
  in
  let run cache =
    let d = Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~cache ~params g in
    let replies = List.map (feed1 d) lines in
    let stats = Daemon.stats_json d in
    Daemon.close d;
    (replies, stats)
  in
  let off, _ = run 0 and on, stats = run 64 in
  List.iter2 (fun x y -> checks "dist cache on vs off" x y) off on;
  checkb "no cache hits" true (contains stats "\"cache_hits\":0,");
  checkb "no cache misses" true (contains stats "\"cache_misses\":0,");
  checkb "dists counted" true (contains stats "\"dists\":41,")

(* Chaos is keyed by the index of admitted queries, and every query
   command takes one, [dist] included: with no retry the i-th admitted
   query is lost exactly when the plan fails query i.  Out-of-range
   queries are refused before admission and take no index. *)
let test_every_query_keeps_its_chaos_index () =
  let n = 32 in
  let g = mk_graph ~n 31 in
  let chaos = Guard.Chaos.plan ~label:"lossy" ~fail_rate:0.3 ~seed:7 () in
  let d = Daemon.create ~policy:Guard.Policy.off ~chaos ~staleness_every:0 ~cache:64 ~params g in
  let rng = Rng.create 32 in
  let queries = 90 and lost = ref 0 in
  for q = 0 to queries - 1 do
    let u = Rng.int rng n and v = Rng.int rng n in
    let cmd = [| "route"; "dist"; "path" |].(q mod 3) in
    let r = feed1 d (Printf.sprintf "%s %d %d" cmd u v) in
    if q mod 10 = 9 then
      checkb "out of range refused" true
        (contains (feed1 d (Printf.sprintf "%s %d %d" cmd u n)) "out of range");
    let expect_lost = Guard.Chaos.query_fails chaos ~q > 0 in
    if expect_lost then incr lost;
    checkb
      (Printf.sprintf "query %d (%s) lost iff the plan fails it: %s" q cmd r)
      expect_lost
      (contains r "rejected=worker_lost");
    if not expect_lost then checkb "answered" true (contains r ("ok " ^ cmd))
  done;
  Daemon.close d;
  checkb "the plan lost some queries" true (!lost > 0 && !lost < queries)

(* every route answer is sampled for staleness: once the sample windows
   are full, the daemon's retained memory must stop growing with the
   number of answers — also while a held repair keeps every valid
   sample waiting for its epoch, when the queue stops at the window and
   counts what it turns away *)
let test_sample_windows_bounded () =
  let n = 32 in
  let g = mk_graph ~n 23 in
  let hook, in_repair, release = held_repair () in
  let d =
    Daemon.create ~policy:Guard.Policy.off ~staleness_every:1 ~repair_hook:hook ~params g
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Daemon.close d)
    (fun () ->
      let rng = Rng.create 24 in
      let retained_after routes =
        for _ = 1 to routes do
          ignore (Daemon.handle d (Printf.sprintf "route %d %d" (Rng.int rng n) (Rng.int rng n)))
        done;
        Gc.compact ();
        Obj.reachable_words (Obj.repr d)
      in
      let w1 = retained_after 10_000 in
      let w2 = retained_after 10_000 in
      checkb (Printf.sprintf "retained words stay flat (%d -> %d)" w1 w2) true (w2 <= w1);
      let before = Daemon.stats_json d in
      let u, v, _ = List.hd (Graph.edges g) in
      ignore (feed d (Printf.sprintf "linkdown %d %d" u v));
      checkb "repair held" true (wait_for (fun () -> Atomic.get in_repair));
      let w3 = retained_after 10_000 in
      let s3 = Daemon.stats_json d in
      let w4 = retained_after 10_000 in
      let s4 = Daemon.stats_json d in
      checkb (Printf.sprintf "retained words stay flat while held (%d -> %d)" w3 w4) true (w4 <= w3);
      checki "the queue stops at the window" 4096 (stats_int s3 "stale_pending");
      checki "and stays there" 4096 (stats_int s4 "stale_pending");
      let valid s = stats_int s "stale_samples" - stats_int s "stale_broken" in
      checki "the rest are skipped" (valid s4 - valid before - 4096) (stats_int s4 "stale_skipped");
      checkb "some were skipped" true (stats_int s3 "stale_skipped" > 0);
      Atomic.set release true;
      (match Daemon.sync d with Ok _ -> () | Error e -> Alcotest.failf "sync: %s" e);
      checki "every queued sample priced" 0 (stats_int (Daemon.stats_json d) "stale_pending"))

(* Every staleness sample is priced on the live graph it was taken on,
   as if by a shortest-path run there: from the answer itself at
   backlog 0, from the epoch that holds its graph, or, where repair
   folds its graph into a larger batch, by a run on that graph.  The
   repair of the first mutation is held, so epoch 0 answers every
   route; the test prices each sample itself and compares the [stats]
   fields. *)
let test_staleness_priced_on_own_graph () =
  let n = 48 in
  let g = mk_graph ~n 37 in
  let hook, in_repair, release = held_repair () in
  let d =
    Daemon.create ~policy:Guard.Policy.off ~staleness_every:1 ~repair_hook:hook ~params g
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Daemon.close d)
    (fun () ->
      let apsp0 = Apsp.compute g in
      let scheme = Agm06.scheme (Agm06.build ~params apsp0) in
      let rng = Rng.create 38 in
      let pairs =
        List.init 40 (fun _ ->
            let u = Rng.int rng n in
            (u, (u + 1 + Rng.int rng (n - 1)) mod n))
      in
      let live = ref g and accepted = ref 0 in
      let samples = ref 0 and broken = ref 0 and pending = ref 0 and stretches = ref [] in
      let taken_at = Array.make 5 0 in
      let walks = ref [] in
      (* one route, answered from epoch 0 and sampled on the live graph;
         [pending] counts the valid samples that must wait for an epoch *)
      let route (u, v) =
        let r = scheme.Scheme.route u v in
        let c = Simulator.check_walk g ~src:u ~dst:v ~delivered:r.Scheme.delivered r.Scheme.walk in
        let delivered = Simulator.is_delivered c.Simulator.outcome in
        let cost = c.Simulator.checked_cost in
        let stretch = Simulator.stretch ~delivered ~cost (Apsp.distance apsp0 u v) in
        checks "the reply is epoch 0's answer"
          (Printf.sprintf "ok route %d %d delivered=%b hops=%d cost=%.6g stretch=%.6g epoch=0" u v
             delivered c.Simulator.checked_hops cost stretch)
          (feed1 d (Printf.sprintf "route %d %d" u v));
        if delivered then begin
          incr samples;
          walks := r.Scheme.walk :: !walks;
          let lc = Simulator.check_walk !live ~src:u ~dst:v ~delivered r.Scheme.walk in
          if not (Simulator.is_delivered lc.Simulator.outcome) then incr broken
          else begin
            let live_d = (Dijkstra.run !live u).Dijkstra.dist.(v) in
            let s = Simulator.stretch ~delivered:true ~cost:lc.Simulator.checked_cost live_d in
            if Float.is_finite s then stretches := s :: !stretches;
            if !accepted > 0 then incr pending;
            taken_at.(!accepted) <- taken_at.(!accepted) + 1
          end
        end
      in
      let mutate mu =
        checkb "mutation accepted" true
          (contains (feed1 d (Graph.mutation_to_string mu)) "ok mutate");
        live := Graph.apply !live mu;
        incr accepted
      in
      List.iter route pairs;
      (* the first hop of each answered walk, longest walks first *)
      let hops =
        List.filter_map (function a :: b :: _ -> Some (a, b) | _ -> None)
          (List.sort (fun x y -> compare (List.length y) (List.length x)) !walks)
      in
      let a, b = List.hd hops in
      mutate (Graph.Link_down (a, b));
      checkb "repair held" true (wait_for (fun () -> Atomic.get in_repair));
      List.iter route pairs;
      let x, y = List.find (fun (x, y) -> (x, y) <> (a, b) && (x, y) <> (b, a)) hops in
      mutate (Graph.Set_weight (x, y, Option.get (Graph.edge_weight !live x y) +. 4.0));
      List.iter route pairs;
      (* two more mutations, folded into one batch with the setw *)
      let p, q = List.find (fun (p, q) -> not (Graph.has_edge !live p q)) pairs in
      mutate (Graph.Link_up (p, q, 1.0));
      List.iter route pairs;
      let e, f, _ = List.nth (Graph.edges !live) 3 in
      mutate (Graph.Set_weight (e, f, 1.0));
      List.iter route pairs;
      checkb "some walks broke" true (!broken > 0);
      checkb "samples on every live graph" true (Array.for_all (fun c -> c > 0) taken_at);
      let held = Daemon.stats_json d in
      checki "every valid sample after the first mutation waits" !pending
        (stats_int held "stale_pending");
      checki "none skipped" 0 (stats_int held "stale_skipped");
      Atomic.set release true;
      (match Daemon.sync d with
      | Ok id -> checki "the setw and the two after it made one epoch" 2 id
      | Error e -> Alcotest.failf "sync: %s" e);
      let synced = Daemon.stats_json d in
      let ss = Cr_util.Stats.summarize (Array.of_list !stretches) in
      List.iter
        (fun (key, x) -> checks key (Jsonl.float x) (stats_field synced key))
        [ ("stale_stretch_p50", ss.Cr_util.Stats.p50); ("stale_stretch_p95", ss.Cr_util.Stats.p95);
          ("stale_stretch_p99", ss.Cr_util.Stats.p99) ];
      checki "samples" !samples (stats_int synced "stale_samples");
      checki "broken" !broken (stats_int synced "stale_broken");
      checki "nothing left to price" 0 (stats_int synced "stale_pending");
      checki "nothing skipped" 0 (stats_int synced "stale_skipped"))

(* ------------------------------------------------------------------ *)
(* Repair equivalence: after sync, the daemon's answers are
   bit-identical to a daemon freshly built on the final graph.  This is
   the pin for incremental repair: distances (%.17g round-trips every
   float exactly) and routes (delivered/hops/cost/stretch) cannot be
   told apart from a from-scratch rebuild. *)

let answers d pairs =
  List.concat_map
    (fun (u, v) ->
      [
        feed1 d (Printf.sprintf "dist %d %d" u v);
        feed1 d (Printf.sprintf "route %d %d" u v);
        feed1 d (Printf.sprintf "path %d %d" u v);
      ])
    pairs

let strip_epoch r =
  match String.rindex_opt r ' ' with Some i -> String.sub r 0 i | None -> r

let repair_equivalence_case seed =
  let rng = Rng.create seed in
  let n = 16 + Rng.int rng 24 in
  let g = mk_graph ~n seed in
  let d = Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~params g in
  let steps = 1 + Rng.int rng 6 in
  for _ = 1 to steps do
    let mu = random_mutation rng (Daemon.live_graph d) in
    ignore (Daemon.handle d (Graph.mutation_to_string mu))
  done;
  (match Daemon.sync d with Ok _ -> () | Error e -> Alcotest.failf "sync: %s" e);
  let final = Daemon.live_graph d in
  let fresh = Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~params final in
  let pairs =
    List.init 40 (fun _ -> (Rng.int rng n, Rng.int rng n))
  in
  (* epoch ids differ by construction (repaired vs 0); everything else
     in the answers must match byte for byte *)
  let a = List.map strip_epoch (answers d pairs)
  and b = List.map strip_epoch (answers fresh pairs) in
  Daemon.close d;
  Daemon.close fresh;
  List.iter2 (fun x y -> checks (Printf.sprintf "seed %d" seed) y x) a b

let test_repair_equivalence () =
  for seed = 1 to 12 do
    repair_equivalence_case seed
  done

(* The shared answer cache must be invisible in the protocol output:
   same churn script, same queries, byte-identical responses with the
   cache on and off — including after a sync bumps the epoch, which is
   the generation the cache ages by. *)
let test_cached_answers_byte_identical () =
  let rng = Rng.create 77 in
  let g = mk_graph ~n:32 77 in
  (* precompute one mutation script so every daemon sees identical input *)
  let script =
    let d = Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~params g in
    let ms =
      List.init 5 (fun _ ->
          let mu = random_mutation rng (Daemon.live_graph d) in
          ignore (Daemon.handle d (Graph.mutation_to_string mu));
          Graph.mutation_to_string mu)
    in
    Daemon.close d;
    ms
  in
  let pairs = List.init 50 (fun _ -> (Rng.int rng 32, Rng.int rng 32)) in
  let run cache =
    let d = Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~cache ~params g in
    (* one repair per mutation: how the worker batches a burst decides
       the epoch ids the answers cite, so both daemons must see the
       same batches *)
    List.iter (fun m -> ignore (Daemon.handle d m); ignore (Daemon.sync d)) script;
    (match Daemon.sync d with Ok _ -> () | Error e -> Alcotest.failf "sync: %s" e);
    let a = answers d pairs in
    (* ask again: the second pass is all cache hits under the same epoch *)
    let b = answers d pairs in
    let sj = Daemon.stats_json d in
    Daemon.close d;
    (a, b, sj)
  in
  let a0, b0, s0 = run 0 in
  let a1, b1, s1 = run 1024 in
  checkb "uncached replay stable" true (a0 = b0);
  checkb "cached replay byte-identical" true (a1 = b1);
  List.iter2 (fun x y -> checks "cache on vs off" x y) a0 a1;
  checkb "cache stats surface hits" true (contains s1 "\"cache_hits\":");
  checkb "disabled cache reports zero capacity" true (contains s0 "\"cache\":0");
  checkb "negative capacity rejected" true
    (try
       ignore (Daemon.create ~cache:(-1) ~staleness_every:0 ~params g);
       false
     with Invalid_argument _ -> true)

(* dirty-set assessment stays consistent with what repair touches *)
let test_dirty_assessment () =
  let g = mk_graph 23 in
  let apsp = Apsp.compute g in
  let agm = Agm06.build ~params apsp in
  let u, v, _ = List.hd (Graph.edges g) in
  let imp = Dirty.assess agm apsp (Graph.Link_down (u, v)) in
  checkb "some sources dirty" true (imp.Dirty.sources > 0);
  checkb "renders" true (String.length (Dirty.to_string imp) > 0);
  let clean = Dirty.assess agm apsp (Graph.Node_up 0) in
  checkb "nodeup touches nothing" true (clean = Dirty.no_impact)

(* ------------------------------------------------------------------ *)
(* Durability & recovery (DESIGN.md §10).  The invariant under test: a
   daemon recovered from disk answers exactly like a daemon that never
   crashed, over the mutation prefix that reached the journal — and a
   torn or corrupt journal tail is a clean truncation, never a crash. *)

let in_temp_dir f =
  let dir = Filename.temp_file "crdur" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* [count] mutations, each applicable to the graph the previous ones
   produce — the same churn the daemon would accept *)
let script g seed count =
  let rng = Rng.create (1000 + seed) in
  let rec go acc g k =
    if k = 0 then List.rev acc
    else
      let mu = random_mutation rng g in
      match Graph.apply g mu with
      | g' -> go (mu :: acc) g' (k - 1)
      | exception Invalid_argument _ -> go acc g k
  in
  go [] g count

let apply_prefix g mus k = Graph.apply_all g (List.filteri (fun i _ -> i < k) mus)

let test_journal_roundtrip_policies () =
  let g = mk_graph ~n:24 41 in
  let mus = script g 41 7 in
  List.iter
    (fun fsync ->
      in_temp_dir (fun dir ->
          let path = Filename.concat dir "j.log" in
          let w = Journal.create ~fsync path in
          List.iter (Journal.append w) mus;
          checki "writer counted records" (List.length mus) (Journal.records w);
          let bytes = Journal.bytes w in
          Journal.close w;
          checki "bytes match the file" bytes (Unix.stat path).Unix.st_size;
          let r = Journal.load ~expect_seq:1 path in
          checkb "no truncation" true (r.Journal.truncation = None);
          checki "all records back" (List.length mus) r.Journal.read_records;
          checki "valid to the end" bytes r.Journal.valid_bytes;
          checkb "same mutations" true (r.Journal.mutations = mus)))
    [ Journal.Every; Journal.Batch 3; Journal.Off ]

let test_journal_torn_at_any_byte () =
  let g = mk_graph ~n:24 43 in
  let mus = script g 43 6 in
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "j.log" in
      let w = Journal.create ~fsync:Journal.Off path in
      List.iter (Journal.append w) mus;
      Journal.close w;
      let full =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let torn = Filename.concat dir "torn.log" in
      (* a crash can cut the file at any byte: the reader must return
         the exact valid record prefix at every single cut, and [load]
         must never raise *)
      for cut = 0 to String.length full - 1 do
        let oc = open_out_bin torn in
        output_string oc (String.sub full 0 cut);
        close_out oc;
        let r = Journal.load ~expect_seq:1 torn in
        checkb "valid prefix only" true
          (r.Journal.mutations = List.filteri (fun i _ -> i < r.Journal.read_records) mus);
        checkb "valid_bytes within cut" true (r.Journal.valid_bytes <= cut);
        (* anything short of the full file must flag the damage unless
           the cut fell exactly on a line boundary *)
        if r.Journal.truncation = None then
          checkb "clean cut is a whole line" true (cut = 0 || full.[cut - 1] = '\n')
      done;
      let r = Journal.load ~expect_seq:1 path in
      checki "untouched file reads whole" (List.length mus) r.Journal.read_records)

let crc_line seq mu =
  let payload = Printf.sprintf "%d %s" seq (Graph.mutation_to_string mu) in
  Printf.sprintf "r %s %s\n" (Cr_util.Crc.to_hex (Cr_util.Crc.string payload)) payload

let test_journal_rejects_bad_sequence_and_crc () =
  let g = mk_graph ~n:24 47 in
  let mus = script g 47 3 in
  let m1, m2, m3 =
    match mus with [ a; b; c ] -> (a, b, c) | _ -> Alcotest.fail "script too short"
  in
  in_temp_dir (fun dir ->
      let write name lines =
        let p = Filename.concat dir name in
        let oc = open_out p in
        List.iter (output_string oc) lines;
        close_out oc;
        p
      in
      (* a sequence gap means a lost middle record: stop before it *)
      let p = write "gap.log" [ crc_line 1 m1; crc_line 3 m2 ] in
      let r = Journal.load ~expect_seq:1 p in
      checki "stops at the gap" 1 r.Journal.read_records;
      checkb "gap reported" true
        (match r.Journal.truncation with
        | Some tr -> contains tr.Journal.reason "sequence"
        | None -> false);
      (* a corrupted payload fails the checksum even when it parses *)
      let good = crc_line 2 m2 in
      let evil = crc_line 2 m3 in
      let forged =
        (* CRC of one record, payload of another *)
        String.sub good 0 11 ^ String.sub evil 11 (String.length evil - 11)
      in
      let p = write "crc.log" [ crc_line 1 m1; forged ] in
      let r = Journal.load ~expect_seq:1 p in
      checki "stops at the forgery" 1 r.Journal.read_records;
      checkb "checksum reported" true
        (match r.Journal.truncation with
        | Some tr -> contains tr.Journal.reason "checksum"
        | None -> false);
      (* expect_seq pins the first record of a recovery suffix *)
      let p = write "seq.log" [ crc_line 1 m1 ] in
      let r = Journal.load ~expect_seq:2 p in
      checki "wrong starting seq rejected" 0 r.Journal.read_records;
      (* legacy journals (bare mutation lines) still load *)
      let p = write "legacy.log" [ Graph.mutation_to_string m1 ^ "\n" ] in
      let r = Journal.load p in
      checki "legacy line loads" 1 r.Journal.read_records;
      checkb "legacy mutation intact" true (r.Journal.mutations = [ m1 ]))

(* blank and comment lines are skipped but still counted, so a
   truncation names the line of the file itself *)
let test_journal_counts_blank_and_comment_lines () =
  let m1 = Graph.Set_weight (0, 1, 2.0) in
  in_temp_dir (fun dir ->
      let p = Filename.concat dir "commented.log" in
      let oc = open_out p in
      output_string oc ("# journal\n\n" ^ crc_line 1 m1 ^ "  # indented\nbogus\n");
      close_out oc;
      let r = Journal.load p in
      checki "record before the damage" 1 r.Journal.read_records;
      checkb "mutation intact" true (r.Journal.mutations = [ m1 ]);
      match r.Journal.truncation with
      | Some tr -> checki "line of the bad record" 5 tr.Journal.lineno
      | None -> Alcotest.fail "expected a truncation")

let test_snapshot_roundtrip_and_fallback () =
  let g = mk_graph ~n:24 53 in
  let mus = script g 53 4 in
  in_temp_dir (fun dir ->
      let snap1 = { Gio.epoch = 1; journal_records = 2; journal_offset = 100;
                    graph = apply_prefix g mus 2 } in
      let snap2 = { Gio.epoch = 2; journal_records = 4; journal_offset = 200;
                    graph = apply_prefix g mus 4 } in
      ignore (Snapshot.write ~dir snap1);
      let p2 = Snapshot.write ~dir snap2 in
      (match Snapshot.load_latest dir with
      | Some (p, s), [] ->
          checks "newest wins" p2 p;
          checki "epoch" 2 s.Gio.epoch;
          checki "records" 4 s.Gio.journal_records;
          checks "graph round-trips" (Gio.to_string snap2.Gio.graph) (Gio.to_string s.Gio.graph)
      | _ -> Alcotest.fail "expected the newest snapshot, nothing skipped");
      (* tear the newest checkpoint mid-file: the checksum fails and
         recovery silently falls back to the older one *)
      let half =
        let ic = open_in_bin p2 in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic / 2))
      in
      let oc = open_out_bin p2 in
      output_string oc half;
      close_out oc;
      match Snapshot.load_latest dir with
      | Some (_, s), [ (skipped, reason) ] ->
          checki "fell back to the older epoch" 1 s.Gio.epoch;
          checks "the torn file was skipped" p2 skipped;
          checkb "reason names the damage" true
            (contains reason "checksum" || contains reason "snapshot")
      | _ -> Alcotest.fail "expected fallback to the older snapshot")

let test_recovery_equivalence_snapshot_plus_suffix () =
  (* the qcheck-style pin for recovery: for a random script and a
     random checkpoint position, snapshot-at-c + journal-suffix replay
     produces the identical graph to a full journal replay *)
  for seed = 1 to 10 do
    let rng = Rng.create (7000 + seed) in
    let n = 16 + Rng.int rng 16 in
    let g = mk_graph ~n seed in
    let mus = script g seed (4 + Rng.int rng 8) in
    let len = List.length mus in
    in_temp_dir (fun dir ->
        let path = Filename.concat dir "j.log" in
        let w = Journal.create ~fsync:Journal.Off path in
        let offsets = Array.make (len + 1) (Journal.bytes w) in
        List.iteri
          (fun i mu ->
            Journal.append w mu;
            offsets.(i + 1) <- Journal.bytes w)
          mus;
        Journal.close w;
        let c = Rng.int rng (len + 1) in
        ignore
          (Snapshot.write ~dir
             { Gio.epoch = c; journal_records = c; journal_offset = offsets.(c);
               graph = apply_prefix g mus c });
        let snap =
          match Snapshot.load_latest dir with
          | Some (_, s), _ -> s
          | None, _ -> Alcotest.fail "snapshot vanished"
        in
        let r =
          Journal.load ~offset:snap.Gio.journal_offset
            ~expect_seq:(snap.Gio.journal_records + 1) path
        in
        checkb "suffix fully valid" true (r.Journal.truncation = None);
        checki "suffix length" (len - c) r.Journal.read_records;
        let via_snapshot = Graph.apply_all snap.Gio.graph r.Journal.mutations in
        let full = Graph.apply_all g (Journal.load path).Journal.mutations in
        checks
          (Printf.sprintf "seed %d cut %d/%d" seed c len)
          (Gio.to_string full) (Gio.to_string via_snapshot))
  done

(* one crashpoint test per site: arm, churn until the crash fires,
   recover from what is on disk, and pin exactly which prefix survived *)
let crashpoint_case site ~after ~survives =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "journal.log" in
      let g = mk_graph ~n:24 59 in
      let mus = script g 59 5 in
      let d =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~journal:path
          ~snapshot_dir:dir ~snapshot_every:2 ~params g
      in
      Crashpoint.arm_raise ~after site;
      let acked = ref 0 in
      (try
         List.iter
           (fun mu ->
             ignore (Daemon.handle d (Graph.mutation_to_string mu));
             incr acked)
           mus
       with Crashpoint.Crashed s ->
         checkb "crashed at the armed site" true (s = site));
      Crashpoint.disarm ();
      Daemon.crash d;
      let r =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~journal:path
          ~snapshot_dir:dir ~recover:true ~params g
      in
      let expected = apply_prefix g mus survives in
      checks
        (Printf.sprintf "recovered live graph = first %d mutations" survives)
        (Gio.to_string expected)
        (Gio.to_string (Daemon.live_graph r));
      let info = match Daemon.recovery r with Some i -> i | None -> Alcotest.fail "no recovery info" in
      (match Jsonl.validate (Daemon.stats_json r) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "recovered stats json invalid: %s" e);
      Daemon.close r;
      (!acked, info))

let test_crash_pre_flush () =
  (* the 3rd append crashes before its flush: the record is lost with
     its ack never sent — recovery must surface exactly 2 mutations
     (checkpointed at 2, empty suffix) *)
  let acked, info = crashpoint_case Crashpoint.Pre_flush ~after:3 ~survives:2 in
  checki "two mutations acked" 2 acked;
  checki "recovered from the checkpoint" 2
    (match info.Daemon.snapshot_epoch with Some _ -> 2 | None -> -1);
  checki "nothing to replay" 0 info.Daemon.replayed

let test_crash_post_flush_pre_ack () =
  (* the 3rd record is durable but unacknowledged: recovery replays it
     — [ok] means durable, and durable-but-unacked may resurface *)
  let acked, info = crashpoint_case Crashpoint.Post_flush_pre_ack ~after:3 ~survives:3 in
  checki "two mutations acked" 2 acked;
  checki "the durable unacked record replays" 1 info.Daemon.replayed

let test_crash_mid_snapshot () =
  (* the checkpoint at record 2 crashes between temp write and rename:
     the snapshot must simply not exist, and the journal alone recovers
     both durable records *)
  let acked, info = crashpoint_case Crashpoint.Mid_snapshot ~after:1 ~survives:2 in
  checki "one mutation acked" 1 acked;
  checkb "no snapshot survived" true (info.Daemon.snapshot_epoch = None);
  checki "journal replayed both records" 2 info.Daemon.replayed

let test_crash_post_rename () =
  (* the checkpoint is renamed into place but the crash lands before the
     directory entry is fsynced: the snapshot we can see must be
     complete and loadable, and recovery uses it with an empty suffix *)
  let acked, info = crashpoint_case Crashpoint.Post_rename ~after:1 ~survives:2 in
  checki "one mutation acked" 1 acked;
  checkb "the renamed checkpoint is complete and loadable" true
    (info.Daemon.snapshot_epoch <> None);
  checki "nothing to replay" 0 info.Daemon.replayed

let test_snapshot_fsyncs_directory () =
  (* Sys.rename makes the checkpoint visible, but only an fsync of the
     containing directory makes the *name* durable — pin that write
     performs it, on the right directory, after the rename *)
  let g = mk_graph ~n:24 73 in
  in_temp_dir (fun dir ->
      let calls = ref [] in
      let old = !Snapshot.fsync_dir_hook in
      Snapshot.fsync_dir_hook :=
        (fun d ->
          calls := d :: !calls;
          old d);
      Fun.protect
        ~finally:(fun () -> Snapshot.fsync_dir_hook := old)
        (fun () ->
          let p =
            Snapshot.write ~dir
              { Gio.epoch = 1; journal_records = 0; journal_offset = 0; graph = g }
          in
          checkb "snapshot file in place when the dir is fsynced" true (Sys.file_exists p);
          checks "fsynced the containing directory exactly once" dir
            (match !calls with [ d ] -> d | _ -> "wrong-call-count")))

let injected_eio = Unix.Unix_error (Unix.EIO, "fsync", "injected")

let test_journal_fsync_failure_policy () =
  (* an fsync that starts failing must not crash the writer or stop
     acks — but it must be counted and surfaced, never swallowed *)
  let g = mk_graph ~n:24 79 in
  let mus = script g 79 3 in
  let old = !Journal.fsync_hook in
  Fun.protect
    ~finally:(fun () -> Journal.fsync_hook := old)
    (fun () ->
      Journal.fsync_hook := (fun _ -> raise injected_eio);
      in_temp_dir (fun dir ->
          let path = Filename.concat dir "j.log" in
          let w = Journal.create ~fsync:Journal.Every path in
          List.iter (Journal.append w) mus;
          checki "every record still appended" (List.length mus) (Journal.records w);
          checki "every failure counted" (List.length mus) (Journal.fsync_failures w);
          Journal.close w;
          (* records were flushed even though fsync failed: in the
             absence of a machine crash the file replays in full *)
          let r = Journal.load path in
          checkb "no truncation" true (r.Journal.truncation = None);
          checki "appends survived" (List.length mus) r.Journal.read_records;
          (* the daemon keeps acking and reports the count in stats *)
          let path2 = Filename.concat dir "j2.log" in
          let d =
            Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~journal:path2
              ~params g
          in
          let resp = feed1 d (Graph.mutation_to_string (List.hd mus)) in
          checkb "mutation still acked" true (contains resp "ok mutate");
          checkb "stats surfaces the failure count" true
            (contains (Daemon.stats_json d) "\"fsync_failures\":1");
          Daemon.close d))

let test_snapshot_failures_surface () =
  (* a checkpoint that cannot be written must not stop acks, but it
     must show in stats: here a regular file takes the snapshot
     directory's path after the daemon started *)
  let g = mk_graph ~n:24 81 in
  let mu = List.hd (script g 81 1) in
  in_temp_dir (fun dir ->
      let snaps = Filename.concat dir "snaps" in
      let d =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0
          ~journal:(Filename.concat dir "j.log") ~snapshot_dir:snaps ~snapshot_every:1 ~params g
      in
      close_out (open_out snaps);
      checkb "mutation still acked" true
        (contains (feed1 d (Graph.mutation_to_string mu)) "ok mutate");
      let stats = Daemon.stats_json d in
      checkb "stats counts the failed checkpoint" true
        (contains stats "\"snapshot_failures\":1");
      checkb "and no written one" true (contains stats "\"snapshots\":0");
      Daemon.close d)

let test_snapshot_path_not_a_directory () =
  (* a snapshot path taken by a regular file could never hold a
     checkpoint, so the daemon refuses it at startup instead of acking
     mutations it can only fail to checkpoint *)
  let g = mk_graph ~n:24 83 in
  in_temp_dir (fun dir ->
      let snaps = Filename.concat dir "snaps" in
      close_out (open_out snaps);
      match
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0
          ~journal:(Filename.concat dir "j.log") ~snapshot_dir:snaps ~params g
      with
      | d ->
          Daemon.close d;
          Alcotest.fail "a regular-file snapshot path was accepted"
      | exception Invalid_argument msg ->
          checkb "the error names the path" true (contains msg snaps))

let test_daemon_crash_loses_unflushed_recover_matches () =
  (* end-to-end: with fsync off nothing is buffered past [append]'s
     flush, so an abandoned daemon recovers to exactly its live graph,
     and the recovered daemon answers like a never-crashed one *)
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "journal.log" in
      let g = mk_graph ~n:32 61 in
      let mus = script g 61 6 in
      let d =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~journal:path
          ~snapshot_dir:dir ~snapshot_every:3 ~params g
      in
      List.iter (fun mu -> ignore (Daemon.handle d (Graph.mutation_to_string mu))) mus;
      let live = Gio.to_string (Daemon.live_graph d) in
      Daemon.crash d;
      let r =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~journal:path
          ~snapshot_dir:dir ~recover:true ~params g
      in
      checks "recovered = live at crash" live (Gio.to_string (Daemon.live_graph r));
      let fresh =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~params
          (Daemon.live_graph r)
      in
      let rng = Rng.create 61 in
      let pairs = List.init 24 (fun _ -> (Rng.int rng 32, Rng.int rng 32)) in
      let a = List.map strip_epoch (answers r pairs)
      and b = List.map strip_epoch (answers fresh pairs) in
      Daemon.close r;
      Daemon.close fresh;
      List.iter2 (fun x y -> checks "recovered answers match fresh" y x) a b)

(* ------------------------------------------------------------------ *)
(* Repair-worker supervision *)

let test_repair_restarts_then_succeeds () =
  let g = mk_graph ~n:24 67 in
  let remaining = Atomic.make 2 in
  let hook () =
    if Atomic.fetch_and_add remaining (-1) > 0 then failwith "injected repair fault"
  in
  let backoff = Guard.Backoff.make ~base_s:0.001 ~cap_s:0.01 ~max_restarts:5 () in
  let d =
    Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~repair_hook:hook
      ~restart_backoff:backoff ~params g
  in
  let u, v, _ = List.hd (Graph.edges g) in
  ignore (feed d (Printf.sprintf "linkdown %d %d" u v));
  (match Daemon.sync d with
  | Ok id -> checki "repaired after transient faults" 1 id
  | Error e -> Alcotest.failf "worker was poisoned by a transient fault: %s" e);
  checki "restarts counted" 2 (Cr_obs.Counters.get (Daemon.counters d) "daemon.repair.restarts");
  checki "never poisoned" 0 (Cr_obs.Counters.get (Daemon.counters d) "daemon.repair.poisoned");
  Daemon.close d

let test_repair_poisons_after_cap () =
  let g = mk_graph ~n:24 71 in
  let hook () = failwith "permanent repair fault" in
  let backoff = Guard.Backoff.make ~base_s:0.001 ~cap_s:0.01 ~max_restarts:2 () in
  let d =
    Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~repair_hook:hook
      ~restart_backoff:backoff ~params g
  in
  let u, v, _ = List.hd (Graph.edges g) in
  ignore (feed d (Printf.sprintf "linkdown %d %d" u v));
  (match Daemon.sync d with
  | Ok _ -> Alcotest.fail "expected poisoning"
  | Error msg -> checkb "error names the fault" true (contains msg "permanent repair fault"));
  checki "restarted up to the cap" 2
    (Cr_obs.Counters.get (Daemon.counters d) "daemon.repair.restarts");
  checki "then poisoned" 1 (Cr_obs.Counters.get (Daemon.counters d) "daemon.repair.poisoned");
  (* the daemon survives: queries still answered from the last-good epoch *)
  let r = feed1 d "route 0 5" in
  checkb "still serving" true (contains r "ok route");
  Daemon.close d

let () =
  Alcotest.run "daemon"
    [
      ( "protocol",
        [
          Alcotest.test_case "queries" `Quick test_protocol_queries;
          Alcotest.test_case "mutations" `Quick test_protocol_mutations;
          Alcotest.test_case "blanks and comments" `Quick test_protocol_blanks_and_comments;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_protocol_errors_carry_line_numbers;
          Alcotest.test_case "session line counter" `Quick test_daemon_counts_session_lines;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "lifecycle" `Quick test_epoch_lifecycle;
          Alcotest.test_case "mutation validation" `Quick test_mutation_validation;
          Alcotest.test_case "path command" `Quick test_path_command;
          Alcotest.test_case "stats json strict" `Quick test_stats_json_strict;
          Alcotest.test_case "journal replays" `Quick test_journal_replays;
        ] );
      ( "serving",
        [
          Alcotest.test_case "probe answered mid-repair under flaky chaos" `Quick
            test_probe_answered_mid_repair;
          Alcotest.test_case "shed on backlog" `Quick test_shed_on_backlog;
          Alcotest.test_case "breaker opens under persistent faults" `Quick
            test_breaker_opens_under_persistent_faults;
          Alcotest.test_case "sample windows bounded" `Quick test_sample_windows_bounded;
          Alcotest.test_case "staleness samples are priced on their own live graph" `Quick
            test_staleness_priced_on_own_graph;
          Alcotest.test_case "dist bypasses the answer cache" `Quick test_dist_bypasses_cache;
          Alcotest.test_case "every query command keeps its chaos index" `Quick
            test_every_query_keeps_its_chaos_index;
        ] );
      ( "repair",
        [
          Alcotest.test_case "incremental equals from-scratch" `Slow test_repair_equivalence;
          Alcotest.test_case "cached answers byte-identical" `Quick
            test_cached_answers_byte_identical;
          Alcotest.test_case "dirty assessment" `Quick test_dirty_assessment;
        ] );
      ( "durability",
        [
          Alcotest.test_case "journal round-trips under every fsync policy" `Quick
            test_journal_roundtrip_policies;
          Alcotest.test_case "journal torn at any byte yields the valid prefix" `Quick
            test_journal_torn_at_any_byte;
          Alcotest.test_case "journal rejects sequence gaps and forged checksums" `Quick
            test_journal_rejects_bad_sequence_and_crc;
          Alcotest.test_case "journal truncation counts blank and comment lines" `Quick
            test_journal_counts_blank_and_comment_lines;
          Alcotest.test_case "snapshot round-trips and falls back past corruption" `Quick
            test_snapshot_roundtrip_and_fallback;
          Alcotest.test_case "snapshot plus suffix equals full replay" `Slow
            test_recovery_equivalence_snapshot_plus_suffix;
          Alcotest.test_case "crash pre-flush loses only the unacked record" `Quick
            test_crash_pre_flush;
          Alcotest.test_case "crash post-flush replays the durable unacked record" `Quick
            test_crash_post_flush_pre_ack;
          Alcotest.test_case "crash post-rename keeps the loadable checkpoint" `Quick
            test_crash_post_rename;
          Alcotest.test_case "snapshot fsyncs the containing directory" `Quick
            test_snapshot_fsyncs_directory;
          Alcotest.test_case "journal fsync failures are counted, never swallowed" `Quick
            test_journal_fsync_failure_policy;
          Alcotest.test_case "snapshot failures are counted, never swallowed" `Quick
            test_snapshot_failures_surface;
          Alcotest.test_case "a snapshot path that is not a directory is refused" `Quick
            test_snapshot_path_not_a_directory;
          Alcotest.test_case "crash mid-snapshot leaves no checkpoint" `Quick
            test_crash_mid_snapshot;
          Alcotest.test_case "crashed daemon recovers to identical answers" `Slow
            test_daemon_crash_loses_unflushed_recover_matches;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "transient repair faults restart the worker" `Quick
            test_repair_restarts_then_succeeds;
          Alcotest.test_case "persistent repair faults poison after the cap" `Quick
            test_repair_poisons_after_cap;
        ] );
    ]
