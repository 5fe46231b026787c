(* Tests for the cr_oracle library: the path-reporting contract (every
   answer ships a concrete walk whose independently-priced weight equals
   the estimate), the 2k-1 stretch guarantee, symmetry, determinism,
   the AGH sparse oracle's stretch-3 / exact-in-vicinity contract, the
   rt routing scheme wrapper, the hop-level trace events, the frozen
   outputs of the Thorup–Zwick comparators, and the
   engine determinism contract for oracle batches (bit-identical across
   pool widths and cache capacities). *)

module Rng = Cr_util.Rng
module Stats = Cr_util.Stats
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Generators = Cr_graph.Generators
module Trace = Cr_obs.Trace
module Po = Cr_oracle.Path_oracle
module So = Cr_oracle.Sparse_oracle
module Oserve = Cr_oracle.Oserve
module Engine = Cr_engine.Engine
module Pool = Cr_util.Domain_pool
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let prepared_graph ?(n = 80) ?(avg = 4.0) seed =
  let rng = Rng.create seed in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n ~avg_degree:avg) in
  Apsp.compute (Graph.normalize g)

(* referee a reported walk: realizable in g, ends at dst, and its
   independently-priced weight matches the estimate (1e-9 relative) *)
let walk_ok g ~src ~dst ~est walk =
  let c = Simulator.check_walk g ~src ~dst ~delivered:true walk in
  Simulator.is_delivered c.Simulator.outcome
  && Float.abs (c.Simulator.checked_cost -. est) <= 1e-9 *. Float.max 1.0 est

(* An oracle batch under the engine's default Policy.off and no chaos:
   every outcome must be [Ok]. *)
let run_off eng apsp oracle pairs =
  let outcomes, _, _ = Oserve.run_guarded eng apsp oracle pairs in
  Array.map (function Ok m -> m | Error _ -> Alcotest.fail "rejection with guards off") outcomes

let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> invalid_arg "last"

(* ------------------------------------------------------------------ *)
(* Path oracle: the reporting contract *)

let path_contract_case ~n ~k seed =
  let apsp = prepared_graph ~n seed in
  let g = Apsp.graph apsp in
  let oracle = Po.build ~k ~seed apsp in
  let bound = Po.stretch_bound oracle in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let d = Apsp.distance apsp u v in
      let est = Po.query oracle u v in
      (match Po.path oracle u v with
      | None -> if d < infinity then ok := false
      | Some a ->
          if a.Po.est <> est then ok := false;
          if List.hd a.Po.walk <> u || last a.Po.walk <> v then ok := false;
          if not (walk_ok g ~src:u ~dst:v ~est:a.Po.est a.Po.walk) then ok := false);
      if d < infinity && (est < d -. 1e-9 || est > (bound *. d) +. 1e-9) then ok := false;
      if d = infinity && est <> infinity then ok := false
    done
  done;
  !ok

let test_path_contract () =
  List.iter
    (fun (n, k, seed) ->
      checkb (Printf.sprintf "contract n=%d k=%d seed=%d" n k seed) true
        (path_contract_case ~n ~k seed))
    [ (40, 1, 3); (60, 2, 5); (80, 3, 7); (60, 4, 11) ]

let test_path_trivial_and_symmetric () =
  let apsp = prepared_graph ~n:50 13 in
  let oracle = Po.build ~k:3 ~seed:13 apsp in
  (match Po.path oracle 7 7 with
  | Some a ->
      checkb "self est 0" true (a.Po.est = 0.0);
      checkb "self walk" true (a.Po.walk = [ 7 ])
  | None -> Alcotest.fail "path u u");
  let ok = ref true in
  for u = 0 to 49 do
    for v = 0 to 49 do
      (* the canonical (min,max) ordering makes both directions exact mirrors *)
      if Po.query oracle u v <> Po.query oracle v u then ok := false;
      match (Po.path oracle u v, Po.path oracle v u) with
      | Some a, Some b -> if a.Po.walk <> List.rev b.Po.walk then ok := false
      | None, None -> ()
      | _ -> ok := false
    done
  done;
  checkb "symmetric" true !ok

let test_path_disconnected () =
  (* two triangles, no bridge *)
  let edges = [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0); (3, 4, 1.0); (4, 5, 1.0); (3, 5, 1.0) ] in
  let apsp = Apsp.compute (Graph.create ~n:6 edges) in
  let oracle = Po.build ~k:3 ~seed:1 apsp in
  checkb "query infinity" true (Po.query oracle 0 4 = infinity);
  checkb "path none" true (Po.path oracle 0 4 = None);
  checkb "same side ok" true (Po.path oracle 3 5 <> None)

let test_path_never_worse_than_distance_oracle () =
  (* same hierarchy, same seed: the path oracle's closure only adds
     entries, so its alternating walk can stop no later *)
  List.iter
    (fun seed ->
      let apsp = prepared_graph ~n:60 seed in
      let po = Po.build ~k:3 ~seed apsp in
      let dz = Distance_oracle.build ~k:3 ~seed apsp in
      let ok = ref true in
      for u = 0 to 59 do
        for v = 0 to 59 do
          if Po.query po u v > Distance_oracle.query dz u v +. 1e-9 then ok := false
        done
      done;
      checkb (Printf.sprintf "seed %d" seed) true !ok)
    [ 2; 17; 23 ]

let test_path_deterministic () =
  let apsp = prepared_graph ~n:50 29 in
  let a = Po.build ~k:3 ~seed:29 apsp in
  let b = Po.build ~k:3 ~seed:29 apsp in
  checki "size" (Po.size_entries a) (Po.size_entries b);
  let ok = ref true in
  for u = 0 to 49 do
    for v = 0 to 49 do
      match (Po.path a u v, Po.path b u v) with
      | Some x, Some y -> if x <> y then ok := false
      | None, None -> ()
      | _ -> ok := false
    done
  done;
  checkb "answers identical" true !ok

let test_storage_accounting () =
  let apsp = prepared_graph ~n:60 31 in
  let oracle = Po.build ~k:3 ~seed:31 apsp in
  let total = ref 0 in
  for u = 0 to 59 do
    total := !total + Po.node_entries oracle u
  done;
  checki "entries sum" (Po.size_entries oracle) !total;
  checkb "closure counted" true (Po.closure_entries oracle >= 0);
  checkb "bits positive" true (Po.storage_bits oracle > 0)

(* The bunch test reads d(u, w) from the caller's row, so no (u, w)
   pair passes a float to another module, which would box it (about
   2 M minor words on this graph). *)
let test_build_minor_words () =
  let rng = Rng.create 1 in
  let g = Graph.normalize (Graph.relabel rng (Generators.power_law rng ~n:1024 ~exponent:2.5)) in
  let apsp = Apsp.compute g in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Po.build ~k:3 ~seed:31 apsp));
  let words = Gc.minor_words () -. w0 in
  if words >= 1_000_000.0 then Alcotest.failf "Path_oracle.build allocated %.0f minor words" words

(* ------------------------------------------------------------------ *)
(* Trace events *)

let test_trace_events () =
  let apsp = prepared_graph ~n:50 37 in
  let oracle = Po.build ~k:3 ~seed:37 apsp in
  let probes = ref 0 and stitches = ref 0 and hits = ref 0 in
  let sink = function
    | Trace.Bunch_probe { hit; _ } ->
        incr probes;
        if hit then incr hits
    | Trace.Stitch _ -> incr stitches
    | _ -> ()
  in
  (match Po.path ~trace:sink oracle 0 17 with
  | Some _ ->
      checkb "probes emitted" true (!probes > 0);
      checki "one stitch" 1 !stitches;
      checki "last probe hits" 1 !hits
  | None -> Alcotest.fail "expected a path");
  (* the sink is pure annotation: the answer is unchanged *)
  checkb "annotation only" true (Po.path ~trace:sink oracle 0 17 = Po.path oracle 0 17)

(* ------------------------------------------------------------------ *)
(* Frozen Thorup–Zwick outputs *)

(* One MD5 over everything the three TZ comparators decide, on the
   graphs of test_core's frozen build digest at k = 2 and 3: the
   labeled baseline's per-node category bits, header bits, labels and
   200 sampled walks; the distance oracle's size, bits and estimates on
   those pairs; the path oracle's size, closure, bits and its answer on
   every pair u < v (the answer on v, u is its mirror, which "trivial
   and symmetric" pins); and the rt scheme's per-node bits.  The
   literal is the digest of the reference construction: a rewrite of
   the hierarchy must reproduce it unedited. *)
let test_frozen_tz_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf buf fmt in
  let digest_tz name ~k apsp =
    let n = Graph.n (Apsp.graph apsp) in
    let sec = Buffer.create (1 lsl 20) in
    let put fmt = Printf.bprintf sec fmt in
    let node_bits (st : Storage.t) =
      for u = 0 to n - 1 do
        put "s %d" u;
        List.iter (fun (cat, bits) -> put " %s=%d" cat bits) (Storage.node_categories st u);
        put "\n"
      done
    in
    let pairs = Experiment.default_pairs ~seed:1 apsp ~count:200 in
    let tz = Baseline_tz.build ~k apsp in
    node_bits tz.Scheme.storage;
    put "header %d\n" tz.Scheme.header_bits;
    Array.iter
      (fun label ->
        put "l";
        Array.iter (fun x -> put " %d" x) label;
        put "\n")
      (Baseline_tz.label_vectors ~k apsp);
    Array.iter
      (fun (s, d) ->
        let r = tz.Scheme.route s d in
        put "r %b %d:" r.Scheme.delivered r.Scheme.phases_used;
        List.iter (fun v -> put " %d" v) r.Scheme.walk;
        put "\n")
      pairs;
    let dz = Distance_oracle.build ~k apsp in
    put "do %d %d\n" (Distance_oracle.size_entries dz) (Distance_oracle.storage_bits dz);
    Array.iter (fun (s, d) -> put "q %d %d %h\n" s d (Distance_oracle.query dz s d)) pairs;
    let po = Po.build ~k apsp in
    put "po %d %d %d\n" (Po.size_entries po) (Po.closure_entries po) (Po.storage_bits po);
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        match Po.path po u v with
        | None -> put "p %d %d none\n" u v
        | Some a ->
            put "p %d %d %h %d %d:" u v a.Po.est a.Po.via a.Po.levels;
            List.iter (fun x -> put " %d" x) a.Po.walk;
            put "\n"
      done
    done;
    node_bits (Cr_oracle.Rt_scheme.make ~k apsp).Scheme.storage;
    add "graph %s k=%d %s\n" name k (Digest.to_hex (Digest.string (Buffer.contents sec)))
  in
  let plain w = Experiment.make_graph ~seed:1 w in
  let pl n = Experiment.Power_law { n; exponent = 2.5 } in
  List.iter
    (fun (name, g) ->
      let apsp = Apsp.compute g in
      List.iter (fun k -> digest_tz name ~k apsp) [ 2; 3 ])
    [
      ("er:256", plain (Experiment.Erdos_renyi { n = 256; avg_degree = 4.0 }));
      ("geo:256", plain (Experiment.Geometric { n = 256; radius = 0.15 }));
      ("pl:512", plain (pl 512));
      ("grid:16x16", plain (Experiment.Grid { rows = 16; cols = 16 }));
      ("expline:64:2", plain (Experiment.Exp_line { n = 64; base = 2.0 }));
      ( "pl:256 aspect 2^60",
        Experiment.make_graph_with_aspect ~seed:1 ~target_aspect:(2.0 ** 60.0) (pl 256) );
      ("pl:256", plain (pl 256));
    ];
  Alcotest.(check string)
    "tz digest" "88c06530e39950c0e358c21e8dddb50f"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Sparse (AGH) oracle *)

let sparse_case ?landmarks ~n seed =
  let apsp = prepared_graph ~n seed in
  let g = Apsp.graph apsp in
  let oracle = So.build ~seed ?landmarks apsp in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let d = Apsp.distance apsp u v in
      let est = So.query oracle u v in
      (match So.path oracle u v with
      | None -> if d < infinity then ok := false
      | Some a ->
          if a.So.est <> est then ok := false;
          if List.hd a.So.walk <> u || last a.So.walk <> v then ok := false;
          if not (walk_ok g ~src:u ~dst:v ~est:a.So.est a.So.walk) then ok := false;
          if a.So.exact && Float.abs (a.So.est -. d) > 1e-9 *. Float.max 1.0 d then ok := false);
      if d < infinity && (est < d -. 1e-9 || est > (3.0 *. d) +. 1e-9) then ok := false
    done
  done;
  !ok

let test_sparse_contract () =
  List.iter
    (fun (n, seed) ->
      checkb (Printf.sprintf "sparse n=%d seed=%d" n seed) true (sparse_case ~n seed))
    [ (40, 3); (60, 5); (80, 7) ]

let test_sparse_single_landmark () =
  checkb "one landmark still within 3" true (sparse_case ~landmarks:1 ~n:40 11)

let test_sparse_deterministic () =
  let apsp = prepared_graph ~n:50 41 in
  let a = So.build ~seed:41 apsp in
  let b = So.build ~seed:41 apsp in
  checki "landmarks" (So.landmark_count a) (So.landmark_count b);
  checki "size" (So.size_entries a) (So.size_entries b);
  let ok = ref true in
  for u = 0 to 49 do
    for v = 0 to 49 do
      if So.path a u v <> So.path b u v then ok := false
    done
  done;
  checkb "answers identical" true !ok

(* ------------------------------------------------------------------ *)
(* rt scheme: the oracle behind the Scheme interface *)

let test_rt_scheme () =
  let apsp = prepared_graph ~n:70 43 in
  let sch = Cr_oracle.Rt_scheme.make ~k:3 ~seed:43 apsp in
  Alcotest.(check string) "name" "rt" sch.Scheme.name;
  let rng = Rng.create 44 in
  let pairs = Simulator.sample_pairs rng apsp ~count:60 in
  Array.iter
    (fun (s, d) ->
      let m = Simulator.measure apsp sch s d in
      checkb (Printf.sprintf "%d->%d delivered" s d) true m.Simulator.delivered;
      checkb
        (Printf.sprintf "%d->%d stretch %.3f" s d m.Simulator.stretch)
        true
        (m.Simulator.stretch <= 5.0 +. 1e-9))
    pairs;
  checkb "storage accounted" true (Storage.total_bits sch.Scheme.storage > 0)

(* ------------------------------------------------------------------ *)
(* Oserve: engine determinism for the oracle surface *)

let test_oserve_measure () =
  let apsp = prepared_graph ~n:60 47 in
  let oracle = Po.build ~k:3 ~seed:47 apsp in
  let m = Oserve.measure apsp oracle 3 29 in
  checkb "ok" true m.Oserve.ok;
  checkb "stretch bounded" true (m.Oserve.stretch <= 5.0 +. 1e-9);
  let self = Oserve.measure apsp oracle 5 5 in
  checkb "self ok" true self.Oserve.ok;
  checkb "self stretch" true (self.Oserve.stretch = 1.0)

(* the referee crt oracle and the O1 bench share for the AGH oracle:
   every walk re-prices to its estimate, and stretch stays within the
   bound; the u = v pair takes the d = 0 branch (stretch 1, not nan) *)
let test_oserve_referee_sparse () =
  let g = Experiment.make_graph ~seed:61 (Experiment.Power_law { n = 64; exponent = 2.5 }) in
  let apsp = Apsp.compute g in
  let so = So.build ~seed:61 apsp in
  let pairs = Array.append [| (5, 5) |] (Simulator.sample_pairs (Rng.create 62) apsp ~count:200) in
  let s = Oserve.referee_sparse apsp so pairs in
  checki "ok = pairs" (Array.length pairs) s.Stats.count;
  checkb
    (Printf.sprintf "1 <= mean %g <= max %g <= bound" s.Stats.mean s.Stats.max)
    true
    (1.0 <= s.Stats.mean
    && s.Stats.mean <= s.Stats.max
    && s.Stats.max <= So.stretch_bound so +. 1e-9)

let test_oserve_pool_and_cache_invariance () =
  let apsp = prepared_graph ~n:60 53 in
  let oracle = Po.build ~k:3 ~seed:53 apsp in
  let rng = Rng.create 54 in
  let pairs = Simulator.sample_pairs rng apsp ~count:300 in
  let run ~domains ~cache =
    let pool = Pool.create ~domains in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let eng = Engine.create ~cache ~pool () in
        run_off eng apsp oracle pairs)
  in
  let baseline = run ~domains:1 ~cache:0 in
  List.iter
    (fun (domains, cache) ->
      checkb
        (Printf.sprintf "domains=%d cache=%d bit-identical" domains cache)
        true
        (run ~domains ~cache = baseline))
    [ (1, 64); (2, 0); (4, 0); (4, 256) ]

let test_oserve_measure_canonical_symmetry () =
  let apsp = prepared_graph ~n:60 61 in
  let oracle = Po.build ~k:3 ~seed:61 apsp in
  let m = Oserve.measure apsp oracle 7 23 and m' = Oserve.measure apsp oracle 23 7 in
  checkb "endpoints follow the query" true
    (m.Oserve.src = 7 && m.Oserve.dst = 23 && m'.Oserve.src = 23 && m'.Oserve.dst = 7);
  (* the canonical contract: the two directions are the same record up
     to src/dst — which is what lets one cache entry serve both *)
  checkb "same measurement up to relabeling" true
    ({ m' with Oserve.src = m.Oserve.src; dst = m.Oserve.dst } = m)

let test_oserve_shared_mode_invariance () =
  let apsp = prepared_graph ~n:60 63 in
  let oracle = Po.build ~k:3 ~seed:63 apsp in
  let rng = Rng.create 64 in
  let pairs = Simulator.sample_pairs rng apsp ~count:300 in
  let run ~domains ~cache ~mode =
    let pool = Pool.create ~domains in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let eng = Engine.create ~cache ~cache_mode:mode ~pool () in
        run_off eng apsp oracle pairs)
  in
  let baseline = run ~domains:1 ~cache:0 ~mode:Engine.Off in
  List.iter
    (fun (domains, cache, mode) ->
      checkb
        (Printf.sprintf "domains=%d cache=%d %s bit-identical" domains cache
           (Engine.cache_mode_to_string mode))
        true
        (run ~domains ~cache ~mode = baseline))
    [
      (2, 128, Engine.Lane); (2, 128, Engine.Shared); (4, 512, Engine.Shared);
      (1, 512, Engine.Shared);
    ]

let test_oserve_guarded_off_matches_batch () =
  let apsp = prepared_graph ~n:50 59 in
  let oracle = Po.build ~k:3 ~seed:59 apsp in
  let rng = Rng.create 60 in
  let pairs = Simulator.sample_pairs rng apsp ~count:100 in
  let plain = Array.map (fun (s, d) -> Oserve.measure apsp oracle s d) pairs in
  let guarded, _, stats = Oserve.run_guarded (Engine.create ()) apsp oracle pairs in
  checki "all admitted" (Array.length pairs) stats.Engine.ok;
  Array.iteri
    (fun i r ->
      match r with
      | Ok m -> checkb (Printf.sprintf "pair %d matches" i) true (m = plain.(i))
      | Error _ -> Alcotest.failf "pair %d rejected with guards off" i)
    guarded

let () =
  Alcotest.run "oracle"
    [
      ( "path oracle",
        [
          Alcotest.test_case "reporting contract" `Quick test_path_contract;
          Alcotest.test_case "trivial and symmetric" `Quick test_path_trivial_and_symmetric;
          Alcotest.test_case "disconnected" `Quick test_path_disconnected;
          Alcotest.test_case "never worse than distance oracle" `Quick
            test_path_never_worse_than_distance_oracle;
          Alcotest.test_case "deterministic" `Quick test_path_deterministic;
          Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
          Alcotest.test_case "build minor words" `Quick test_build_minor_words;
          Alcotest.test_case "trace events" `Quick test_trace_events;
        ] );
      ("tz hierarchy", [ Alcotest.test_case "frozen TZ digest" `Quick test_frozen_tz_digest ]);
      ( "sparse oracle",
        [
          Alcotest.test_case "stretch-3 contract" `Quick test_sparse_contract;
          Alcotest.test_case "single landmark" `Quick test_sparse_single_landmark;
          Alcotest.test_case "deterministic" `Quick test_sparse_deterministic;
        ] );
      ("rt scheme", [ Alcotest.test_case "delivers within 2k-1" `Quick test_rt_scheme ]);
      ( "oserve",
        [
          Alcotest.test_case "measure referees walks" `Quick test_oserve_measure;
          Alcotest.test_case "sparse referee" `Quick test_oserve_referee_sparse;
          Alcotest.test_case "pool and cache invariance" `Quick
            test_oserve_pool_and_cache_invariance;
          Alcotest.test_case "measure is canonical" `Quick
            test_oserve_measure_canonical_symmetry;
          Alcotest.test_case "shared-mode invariance" `Quick
            test_oserve_shared_mode_invariance;
          Alcotest.test_case "guarded off matches batch" `Quick
            test_oserve_guarded_off_matches_batch;
        ] );
    ]
