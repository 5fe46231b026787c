(* Tests for the comparison schemes: full tables, single tree,
   Awerbuch-Peleg hierarchical covers, ABLP-style exponential scheme,
   Thorup-Zwick labeled routing — plus cross-scheme sanity on shared
   workloads and the Experiment harness. *)

module Rng = Cr_util.Rng
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Generators = Cr_graph.Generators
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let prepared ?(n = 100) ?(avg = 4.0) seed =
  let rng = Rng.create seed in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n ~avg_degree:avg) in
  Apsp.compute (Graph.normalize g)

let all_pairs_check apsp sch ~expect_stretch_one =
  let n = Graph.n (Apsp.graph apsp) in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if (s * 31 + d) mod 11 = 0 then begin
        let m = Simulator.measure apsp sch s d in
        checkb (Printf.sprintf "%s delivers %d->%d" sch.Scheme.name s d) true m.Simulator.delivered;
        if expect_stretch_one && s <> d then
          checkb "stretch 1" true (m.Simulator.stretch <= 1.0 +. 1e-9)
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* full tables *)

let test_full_tables () =
  let apsp = prepared 3 in
  all_pairs_check apsp (Baseline_full.build apsp) ~expect_stretch_one:true

let test_full_tables_storage () =
  let apsp = prepared ~n:64 5 in
  let sch = Baseline_full.build apsp in
  (* every node pays Omega(n log n): 63 entries x >= 13 bits *)
  for u = 0 to 63 do
    checkb "big tables" true (Storage.node_bits sch.Scheme.storage u >= 63 * 13)
  done

let test_full_tables_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let apsp = Apsp.compute g in
  let sch = Baseline_full.build apsp in
  let m = sch.Scheme.route 0 2 in
  checkb "disconnected undelivered" true (not m.Scheme.delivered)

(* ------------------------------------------------------------------ *)
(* single tree *)

let test_single_tree_delivers () =
  let apsp = prepared 7 in
  all_pairs_check apsp (Baseline_tree.build apsp) ~expect_stretch_one:false

let test_single_tree_space_tiny () =
  let apsp = prepared ~n:128 11 in
  let full = Baseline_full.build apsp in
  let tree = Baseline_tree.build apsp in
  checkb "tree much smaller than full"
    true
    (Storage.mean_node_bits tree.Scheme.storage < Storage.mean_node_bits full.Scheme.storage /. 10.0)

let test_single_tree_bad_stretch_on_ring () =
  (* on a ring the tree cuts one edge: stretch near n for neighbors *)
  let rng = Rng.create 13 in
  let g = Generators.ring_with_chords rng ~n:40 ~chords:0 in
  let g = Graph.relabel rng g in
  let apsp = Apsp.compute g in
  let sch = Baseline_tree.build apsp in
  let worst = ref 0.0 in
  for s = 0 to 39 do
    let m = Simulator.measure apsp sch s ((s + 1) mod 40) in
    if m.Simulator.stretch > !worst then worst := m.Simulator.stretch
  done;
  checkb (Printf.sprintf "ring worst stretch %.1f >= 10" !worst) true (!worst >= 10.0)

(* ------------------------------------------------------------------ *)
(* Awerbuch-Peleg hierarchical *)

let test_ap_delivers () =
  let apsp = prepared 17 in
  all_pairs_check apsp (Baseline_ap.build ~k:3 apsp) ~expect_stretch_one:false

let test_ap_stretch_bounded () =
  (* O(k d) with the doubling-scale argument; generous constant 16k *)
  let apsp = prepared ~n:80 19 in
  let k = 2 in
  let sch = Baseline_ap.build ~k apsp in
  let rng = Rng.create 1 in
  let pairs = Simulator.sample_pairs rng apsp ~count:200 in
  Array.iter
    (fun (s, d) ->
      let m = Simulator.measure apsp sch s d in
      checkb "delivered" true m.Simulator.delivered;
      checkb
        (Printf.sprintf "stretch %.2f bounded" m.Simulator.stretch)
        true
        (m.Simulator.stretch <= 16.0 *. float_of_int k))
    pairs

let test_ap_storage_grows_with_aspect () =
  (* the non-scale-free signature: a graph with structure at every
     distance scale (the paper's exponential-weights example, §1.3)
     makes per-scale storage grow linearly in log Δ, while AGM06 stays
     flat (the full sweep is experiment T3) *)
  let rng = Rng.create 23 in
  let build base =
    let g = Graph.normalize (Graph.relabel (Rng.copy rng) (Generators.exponential_line ~n:64 ~base)) in
    Apsp.compute g
  in
  let small = build 1.2 and spread = build 8.0 in
  let s_small = Baseline_ap.build ~k:2 small in
  let s_spread = Baseline_ap.build ~k:2 spread in
  checkb "levels grew" true (Baseline_ap.levels spread > 2 * Baseline_ap.levels small);
  checkb "storage grew" true
    (Storage.mean_node_bits s_spread.Scheme.storage
    > 1.5 *. Storage.mean_node_bits s_small.Scheme.storage);
  (* while the scale-free scheme's storage stays flat *)
  let a_small = Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:2 ()) small) in
  let a_spread = Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:2 ()) spread) in
  checkb "agm06 flat" true
    (Storage.mean_node_bits a_spread.Scheme.storage
    < 1.5 *. Storage.mean_node_bits a_small.Scheme.storage)

(* ------------------------------------------------------------------ *)
(* ABLP exponential *)

let test_exp_delivers () =
  let apsp = prepared 29 in
  all_pairs_check apsp (Baseline_exp.build ~k:3 apsp) ~expect_stretch_one:false

let test_exp_k_variants () =
  let apsp = prepared ~n:60 31 in
  List.iter
    (fun k ->
      let sch = Baseline_exp.build ~k apsp in
      let rng = Rng.create k in
      let pairs = Simulator.sample_pairs rng apsp ~count:80 in
      Array.iter
        (fun (s, d) ->
          checkb "delivered" true (Simulator.measure apsp sch s d).Simulator.delivered)
        pairs)
    [ 1; 2; 4 ]

let test_exp_space_below_full () =
  let apsp = prepared ~n:128 37 in
  let full = Baseline_full.build apsp in
  let ex = Baseline_exp.build ~k:3 apsp in
  checkb "exp smaller than full tables" true
    (Storage.mean_node_bits ex.Scheme.storage < Storage.mean_node_bits full.Scheme.storage /. 2.0)

let test_exp_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let apsp = Apsp.compute g in
  let sch = Baseline_exp.build ~k:2 apsp in
  checkb "disconnected undelivered" true (not (sch.Scheme.route 0 3).Scheme.delivered);
  checkb "same component ok" true (sch.Scheme.route 0 1).Scheme.delivered

(* ------------------------------------------------------------------ *)
(* stretch-3 name-independent scheme (AGMNT'04 style) *)

let test_s3_delivers () =
  let apsp = prepared 97 in
  all_pairs_check apsp (Baseline_s3.build apsp) ~expect_stretch_one:false

let test_s3_stretch_small_constant () =
  let apsp = prepared ~n:150 101 in
  let sch = Baseline_s3.build apsp in
  let rng = Rng.create 5 in
  let pairs = Simulator.sample_pairs rng apsp ~count:400 in
  Array.iter
    (fun (s, d) ->
      let m = Simulator.measure apsp sch s d in
      checkb "delivered" true m.Simulator.delivered;
      (* the handshake-free variant stays below 5 in practice *)
      checkb (Printf.sprintf "stretch %.2f small" m.Simulator.stretch) true
        (m.Simulator.stretch <= 5.0 +. 1e-9))
    pairs

let test_s3_space_sublinear () =
  (* Õ(√n): doubling n should far less than double per-node bits of the
     dominant dictionary+vicinity categories (polylog slack allowed) *)
  let a = prepared ~n:128 103 in
  let b = prepared ~n:512 103 in
  let sa = Baseline_s3.build a and sb = Baseline_s3.build b in
  let ga = Storage.mean_node_bits sa.Scheme.storage in
  let gb = Storage.mean_node_bits sb.Scheme.storage in
  (* n grew 4x; sqrt-shape predicts ~2x; allow up to 3.2x for log factors *)
  checkb (Printf.sprintf "sublinear growth %.2fx" (gb /. ga)) true (gb /. ga < 3.2)

let test_s3_name_independent () =
  (* relabeling must not break routing *)
  let rng = Rng.create 107 in
  let g = Graph.relabel rng (Generators.two_tier_isp rng ~core:5 ~access_per_core:10) in
  let apsp = Apsp.compute (Graph.normalize g) in
  let sch = Baseline_s3.build apsp in
  let pairs = Simulator.sample_pairs rng apsp ~count:150 in
  Array.iter
    (fun (s, d) -> checkb "delivered" true (Simulator.measure apsp sch s d).Simulator.delivered)
    pairs

(* ------------------------------------------------------------------ *)
(* Thorup-Zwick labeled *)

let test_tz_delivers () =
  let apsp = prepared 41 in
  all_pairs_check apsp (Baseline_tz.build ~k:3 apsp) ~expect_stretch_one:false

let test_tz_stretch_bound () =
  (* 4k-5 worst case; allow the formal bound exactly *)
  let apsp = prepared ~n:90 43 in
  let k = 3 in
  let sch = Baseline_tz.build ~k apsp in
  let rng = Rng.create 2 in
  let pairs = Simulator.sample_pairs rng apsp ~count:300 in
  Array.iter
    (fun (s, d) ->
      let m = Simulator.measure apsp sch s d in
      checkb "delivered" true m.Simulator.delivered;
      checkb
        (Printf.sprintf "stretch %.2f <= 4k-5+eps" m.Simulator.stretch)
        true
        (m.Simulator.stretch <= float_of_int ((4 * k) - 5) +. 1e-6))
    pairs

let test_tz_k1_is_exact () =
  (* k=1: bunches are everything; routing is shortest path *)
  let apsp = prepared ~n:40 47 in
  let sch = Baseline_tz.build ~k:1 apsp in
  let rng = Rng.create 3 in
  let pairs = Simulator.sample_pairs rng apsp ~count:100 in
  Array.iter
    (fun (s, d) ->
      let m = Simulator.measure apsp sch s d in
      checkb "stretch 1" true (m.Simulator.stretch <= 1.0 +. 1e-9))
    pairs

let test_tz_space_below_full () =
  let apsp = prepared ~n:200 53 in
  let full = Baseline_full.build apsp in
  let tz = Baseline_tz.build ~k:3 apsp in
  checkb "tz smaller" true
    (Storage.mean_node_bits tz.Scheme.storage < Storage.mean_node_bits full.Scheme.storage /. 2.0)

(* k < 1 has no hierarchy: the labeled baseline and both TZ oracles
   refuse it by name, through the one check they share *)
let test_tz_k0_rejected () =
  let g = Experiment.make_graph ~seed:1 (Experiment.Erdos_renyi { n = 64; avg_degree = 4.0 }) in
  let apsp = Apsp.compute g in
  let rejects name f =
    Alcotest.check_raises name (Invalid_argument "Tz_hierarchy.build: k < 1") (fun () ->
        ignore (f ()))
  in
  List.iter
    (fun k ->
      rejects "build" (fun () -> Baseline_tz.build ~k apsp);
      rejects "label_vectors" (fun () -> Baseline_tz.label_vectors ~k apsp);
      rejects "distance oracle" (fun () -> Distance_oracle.build ~k apsp);
      rejects "path oracle" (fun () -> Cr_oracle.Path_oracle.build ~k apsp))
    [ 0; -1 ]

(* ------------------------------------------------------------------ *)
(* cross-scheme comparisons on one workload *)

let test_cross_scheme_ordering () =
  let apsp = prepared ~n:150 59 in
  let pairs = Experiment.default_pairs ~seed:4 apsp ~count:300 in
  let full = Experiment.run_scheme apsp (Baseline_full.build apsp) ~pairs in
  let agm = Experiment.run_scheme apsp (Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:3 ()) apsp)) ~pairs in
  let tree = Experiment.run_scheme apsp (Baseline_tree.build apsp) ~pairs in
  checkf "full is exact" 1.0 full.Experiment.stretch_mean;
  checkb "all delivered" true
    (full.Experiment.delivered = 300 && agm.Experiment.delivered = 300 && tree.Experiment.delivered = 300);
  checkb "full tables biggest" true (full.Experiment.bits_mean > agm.Experiment.bits_mean /. 10.0);
  checkb "tree smallest" true (tree.Experiment.bits_mean < agm.Experiment.bits_mean)

let test_experiment_workloads () =
  List.iter
    (fun w ->
      let g = Experiment.make_graph ~seed:3 w in
      checkb (Experiment.workload_name w ^ " connected") true (Cr_graph.Component.is_connected g);
      checkf (Experiment.workload_name w ^ " normalized") 1.0 (Graph.min_weight g))
    [
      Experiment.Erdos_renyi { n = 60; avg_degree = 4.0 };
      Experiment.Geometric { n = 60; radius = 0.3 };
      Experiment.Grid { rows = 6; cols = 8 };
      Experiment.Ring_chords { n = 50; chords = 10 };
      Experiment.Isp { core = 5; access_per_core = 8 };
      Experiment.Tree_w { n = 50 };
      Experiment.Preferential { n = 60; edges_per_node = 2 };
    ]

let test_experiment_aspect_control () =
  let w = Experiment.Grid { rows = 8; cols = 8 } in
  let g = Experiment.make_graph_with_aspect ~seed:5 ~target_aspect:(2.0 ** 20.0) w in
  let spread = Graph.max_weight g /. Graph.min_weight g in
  checkb "weight spread large" true (spread > 1000.0)

let test_scale_chain_islands_layout () =
  let islands = Generators.scale_chain_islands ~sigma:4 ~levels:3 () in
  checki "count" 4 (Array.length islands);
  let rng = Rng.create 6 in
  let g = Generators.scale_chain rng ~sigma:4 ~levels:3 ~spacing:8.0 in
  let last_start, last_size = islands.(3) in
  checki "total nodes" (last_start + last_size) (Graph.n g);
  (* islands are cliques *)
  Array.iter
    (fun (s, sz) ->
      for a = s to s + sz - 1 do
        for b = a + 1 to s + sz - 1 do
          checkb "clique edge" true (Graph.has_edge g a b)
        done
      done)
    islands

(* ------------------------------------------------------------------ *)
(* header sizes: the paper claims Õ(1)-bit headers *)

let test_header_bits_polylog () =
  let apsp = prepared ~n:200 109 in
  let n = 200 in
  let lg = Cr_util.Bits.bits_for n in
  let limit = 8 * lg * lg in
  List.iter
    (fun sch ->
      checkb (sch.Scheme.name ^ " header positive") true (sch.Scheme.header_bits > 0);
      checkb
        (Printf.sprintf "%s header %d <= %d" sch.Scheme.name sch.Scheme.header_bits limit)
        true
        (sch.Scheme.header_bits <= limit))
    [
      Baseline_full.build apsp;
      Baseline_tree.build apsp;
      Baseline_ap.build ~k:3 apsp;
      Baseline_exp.build ~k:3 apsp;
      Baseline_tz.build ~k:3 apsp;
      Baseline_s3.build apsp;
      Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:3 ()) apsp);
    ]

let test_csv_export () =
  let apsp = prepared ~n:60 113 in
  let pairs = Experiment.default_pairs ~seed:114 apsp ~count:50 in
  let rows =
    [ Experiment.run_scheme apsp (Baseline_full.build apsp) ~pairs;
      Experiment.run_scheme apsp (Baseline_tree.build apsp) ~pairs ]
  in
  let csv = Experiment.rows_to_csv rows in
  let lines = String.split_on_char '\n' (String.trim csv) in
  checki "header + 2 rows" 3 (List.length lines);
  (match lines with
  | header :: _ ->
      checkb "header starts with scheme" true (String.length header > 6 && String.sub header 0 6 = "scheme")
  | [] -> Alcotest.fail "empty csv");
  let path = Filename.temp_file "crt_rows" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Experiment.write_csv rows path;
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      checkb "file written" true (len > 60))

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"all baselines deliver on random graphs" ~count:6
      (pair (int_range 0 300) (int_range 25 60))
      (fun (seed, n) ->
        let apsp = prepared ~n seed in
        let schemes =
          [
            Baseline_full.build apsp;
            Baseline_tree.build apsp;
            Baseline_ap.build ~k:2 apsp;
            Baseline_exp.build ~k:2 apsp;
            Baseline_tz.build ~k:2 apsp;
          ]
        in
        let rng = Rng.create (seed + 7) in
        let pairs = Simulator.sample_pairs rng apsp ~count:30 in
        List.for_all
          (fun sch ->
            Array.for_all
              (fun (s, d) -> (Simulator.measure apsp sch s d).Simulator.delivered)
              pairs)
          schemes);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "baselines"
    [
      ( "full",
        [
          Alcotest.test_case "stretch 1 everywhere" `Quick test_full_tables;
          Alcotest.test_case "storage Omega(n log n)" `Quick test_full_tables_storage;
          Alcotest.test_case "disconnected" `Quick test_full_tables_disconnected;
        ] );
      ( "single_tree",
        [
          Alcotest.test_case "delivers" `Quick test_single_tree_delivers;
          Alcotest.test_case "tiny space" `Quick test_single_tree_space_tiny;
          Alcotest.test_case "bad stretch on ring" `Quick test_single_tree_bad_stretch_on_ring;
        ] );
      ( "awerbuch_peleg",
        [
          Alcotest.test_case "delivers" `Quick test_ap_delivers;
          Alcotest.test_case "stretch bounded" `Quick test_ap_stretch_bounded;
          Alcotest.test_case "storage grows with aspect" `Quick test_ap_storage_grows_with_aspect;
        ] );
      ( "ablp_exp",
        [
          Alcotest.test_case "delivers" `Quick test_exp_delivers;
          Alcotest.test_case "k variants" `Quick test_exp_k_variants;
          Alcotest.test_case "space below full" `Quick test_exp_space_below_full;
          Alcotest.test_case "disconnected" `Quick test_exp_disconnected;
        ] );
      ( "stretch3",
        [
          Alcotest.test_case "delivers" `Quick test_s3_delivers;
          Alcotest.test_case "small constant stretch" `Quick test_s3_stretch_small_constant;
          Alcotest.test_case "space sublinear" `Quick test_s3_space_sublinear;
          Alcotest.test_case "name independent" `Quick test_s3_name_independent;
        ] );
      ( "thorup_zwick",
        [
          Alcotest.test_case "delivers" `Quick test_tz_delivers;
          Alcotest.test_case "stretch 4k-5" `Quick test_tz_stretch_bound;
          Alcotest.test_case "k=1 exact" `Quick test_tz_k1_is_exact;
          Alcotest.test_case "space below full" `Quick test_tz_space_below_full;
          Alcotest.test_case "k < 1 rejected" `Quick test_tz_k0_rejected;
        ] );
      ( "cross",
        [
          Alcotest.test_case "header bits polylog" `Quick test_header_bits_polylog;
          Alcotest.test_case "csv export" `Quick test_csv_export;
          Alcotest.test_case "ordering" `Quick test_cross_scheme_ordering;
          Alcotest.test_case "experiment workloads" `Quick test_experiment_workloads;
          Alcotest.test_case "aspect control" `Quick test_experiment_aspect_control;
          Alcotest.test_case "scale chain islands" `Quick test_scale_chain_islands_layout;
        ] );
      ("properties", qsuite);
    ]
