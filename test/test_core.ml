(* Tests for the compact_routing core: parameters, storage accounting,
   the simulator referee, the sparse/dense decomposition (Definitions 1-2,
   Lemma 2), the full AGM06 scheme (Theorem 1), and the Thorup-Zwick
   hierarchy against its definition. *)

module Rng = Cr_util.Rng
module Bits = Cr_util.Bits
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Ball = Cr_graph.Ball
module Generators = Cr_graph.Generators
module Landmarks = Cr_landmark.Landmarks
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let prepared_graph ?(n = 120) ?(avg = 4.0) seed =
  let rng = Rng.create seed in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n ~avg_degree:avg) in
  let g = Graph.normalize g in
  Apsp.compute g

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_presets () =
  let s = Params.scaled ~k:3 () in
  let p = Params.paper ~k:3 () in
  checki "scaled cap n=512" 64 (Params.landmark_cap s ~n:512);
  checki "paper cap clamps to n" 512 (Params.landmark_cap p ~n:512);
  checki "sigma 512 k=3" 8 (Params.sigma s ~n:512);
  checki "sigma 1024 k=2" 32 (Params.sigma (Params.scaled ~k:2 ()) ~n:1024);
  Params.validate s;
  Params.validate p;
  checkb "k=0 invalid" true
    (try Params.validate { s with Params.k = 0 }; false with Invalid_argument _ -> true)

let test_params_cap_monotone_in_n () =
  let p = Params.scaled ~k:3 () in
  let last = ref 0 in
  List.iter
    (fun n ->
      let c = Params.landmark_cap p ~n in
      checkb "monotone" true (c >= !last);
      last := c)
    [ 64; 128; 256; 512; 1024 ]

(* ------------------------------------------------------------------ *)
(* Storage *)

let test_storage_accounting () =
  let s = Storage.create ~n:4 in
  Storage.add s ~node:0 ~category:"a" ~bits:10;
  Storage.add s ~node:0 ~category:"b" ~bits:5;
  Storage.add s ~node:1 ~category:"a" ~bits:7;
  checki "node 0" 15 (Storage.node_bits s 0);
  checki "node 1" 7 (Storage.node_bits s 1);
  checki "node 2" 0 (Storage.node_bits s 2);
  checki "max" 15 (Storage.max_node_bits s);
  checkf "mean" 5.5 (Storage.mean_node_bits s);
  checki "total" 22 (Storage.total_bits s);
  Alcotest.(check (list (pair string int))) "categories" [ ("a", 17); ("b", 5) ] (Storage.categories s);
  Alcotest.(check (list (pair string int))) "node categories" [ ("a", 10); ("b", 5) ]
    (Storage.node_categories s 0);
  checkb "negative rejected" true
    (try Storage.add s ~node:0 ~category:"a" ~bits:(-1); false with Invalid_argument _ -> true)

let test_storage_merge () =
  let a = Storage.create ~n:3 and b = Storage.create ~n:3 in
  Storage.add a ~node:0 ~category:"x" ~bits:4;
  Storage.add b ~node:0 ~category:"x" ~bits:6;
  Storage.add b ~node:2 ~category:"y" ~bits:1;
  Storage.merge_into ~dst:a b;
  checki "merged node 0" 10 (Storage.node_bits a 0);
  checki "merged node 2" 1 (Storage.node_bits a 2);
  let c = Storage.create ~n:2 in
  checkb "size mismatch" true
    (try Storage.merge_into ~dst:a c; false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Simulator *)

let line_graph () = Graph.create ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ]

let dummy_scheme g walk_fn =
  {
    Scheme.name = "dummy";
    graph = g;
    storage = Storage.create ~n:(Graph.n g);
    header_bits = Scheme.default_header_bits ~n:(Graph.n g);
    route = (fun ?trace:_ s d -> let w, ok = walk_fn s d in { Scheme.walk = w; delivered = ok; phases_used = 1 });
  }

let test_simulator_walk_cost () =
  let g = line_graph () in
  let c, h = Simulator.walk_cost g [ 0; 1; 2; 3 ] in
  checkf "cost" 3.0 c;
  checki "hops" 3 h;
  let c1, h1 = Simulator.walk_cost g [ 2 ] in
  checkf "single cost" 0.0 c1;
  checki "single hops" 0 h1;
  checkb "non-edge rejected" true
    (try ignore (Simulator.walk_cost g [ 0; 2 ]); false with Simulator.Invalid_walk _ -> true);
  checkb "empty rejected" true
    (try ignore (Simulator.walk_cost g []); false with Simulator.Invalid_walk _ -> true)

let test_simulator_measure () =
  let g = line_graph () in
  let apsp = Apsp.compute g in
  (* honest scheme walking 0-1-2-1-2-3 *)
  let sch = dummy_scheme g (fun _ _ -> ([ 0; 1; 2; 1; 2; 3 ], true)) in
  let m = Simulator.measure apsp sch 0 3 in
  checkb "delivered" true m.Simulator.delivered;
  checkf "cost" 5.0 m.Simulator.cost;
  checkf "stretch" (5.0 /. 3.0) m.Simulator.stretch;
  (* lying scheme: claims delivery but ends elsewhere *)
  let liar = dummy_scheme g (fun _ _ -> ([ 0; 1 ], true)) in
  checkb "liar caught" true
    (try ignore (Simulator.measure apsp liar 0 3); false with Simulator.Invalid_walk _ -> true);
  (* wrong start *)
  let drifter = dummy_scheme g (fun _ _ -> ([ 1; 2; 3 ], true)) in
  checkb "wrong start caught" true
    (try ignore (Simulator.measure apsp drifter 0 3); false with Simulator.Invalid_walk _ -> true);
  (* honest failure: walk back home *)
  let failer = dummy_scheme g (fun s _ -> ([ s; 1; s ], false)) in
  let mf = Simulator.measure apsp failer 0 3 in
  checkb "undelivered ok" true (not mf.Simulator.delivered);
  checkb "stretch infinite" true (mf.Simulator.stretch = infinity)

let test_simulator_evaluate () =
  let g = line_graph () in
  let apsp = Apsp.compute g in
  let sch =
    dummy_scheme g (fun s d ->
        (* route along the line *)
        let step = if d > s then 1 else -1 in
        let rec go x acc = if x = d then List.rev (x :: acc) else go (x + step) (x :: acc) in
        (go s [], true))
  in
  let pairs = [| (0, 3); (3, 0); (1, 2) |] in
  let agg = Simulator.evaluate apsp sch pairs in
  checki "pairs" 3 agg.Simulator.pairs;
  checki "delivered" 3 agg.Simulator.delivered;
  checkf "stretch 1" 1.0 agg.Simulator.stretch_stats.Cr_util.Stats.mean

let test_simulator_sample_pairs () =
  let apsp = prepared_graph 5 in
  let rng = Rng.create 9 in
  let pairs = Simulator.sample_pairs rng apsp ~count:100 in
  checki "count" 100 (Array.length pairs);
  Array.iter
    (fun (s, d) ->
      checkb "distinct" true (s <> d);
      checkb "connected" true (Apsp.distance apsp s d < infinity))
    pairs

let test_simulator_sample_pairs_shortfall () =
  (* 64 nodes, one single edge: connected ordered pairs are so rare that
     the rejection-sampling guard expires.  The shortfall must surface as
     Sample_shortfall, never as a quietly truncated sample. *)
  let g = Graph.create ~n:64 [ (0, 1, 1.0) ] in
  let apsp = Apsp.compute g in
  (match Simulator.sample_pairs (Rng.create 1) apsp ~count:100 with
  | exception Simulator.Sample_shortfall { requested; found } ->
      checki "requested" 100 requested;
      checkb "found fewer" true (found < 100)
  | pairs -> Alcotest.failf "expected Sample_shortfall, got %d pairs" (Array.length pairs));
  (* opting in to a short sample returns only valid pairs *)
  let short = Simulator.sample_pairs ~allow_short:true (Rng.create 1) apsp ~count:100 in
  checkb "short" true (Array.length short < 100);
  Array.iter
    (fun (s, d) ->
      checkb "valid pair" true (s <> d && Apsp.distance apsp s d < infinity))
    short

let test_simulator_check_walk_outcomes () =
  let g = line_graph () in
  let ck = Simulator.check_walk g in
  checkb "delivered" true
    ((ck ~src:0 ~dst:3 ~delivered:true [ 0; 1; 2; 3 ]).Simulator.outcome = Simulator.Delivered);
  checkb "no-route" true
    ((ck ~src:0 ~dst:3 ~delivered:false [ 0; 1; 0 ]).Simulator.outcome = Simulator.No_route);
  let is_invalid walk ~delivered =
    match (ck ~src:0 ~dst:3 ~delivered walk).Simulator.outcome with
    | Simulator.Invalid_hop _ -> true
    | _ -> false
  in
  checkb "empty" true (is_invalid [] ~delivered:false);
  checkb "wrong start" true (is_invalid [ 1; 2; 3 ] ~delivered:true);
  checkb "non-edge" true (is_invalid [ 0; 2; 3 ] ~delivered:true);
  checkb "out of range" true (is_invalid [ 0; 1; 9 ] ~delivered:false);
  checkb "liar" true (is_invalid [ 0; 1 ] ~delivered:true);
  (* valid-prefix pricing: cost covers hops before the defect *)
  let c = ck ~src:0 ~dst:3 ~delivered:true [ 0; 1; 2; 0 ] in
  checkf "prefix cost" 2.0 c.Simulator.checked_cost;
  checki "prefix hops" 2 c.Simulator.checked_hops

(* ------------------------------------------------------------------ *)
(* Decomposition *)

let test_decomposition_ranges_monotone () =
  let apsp = prepared_graph 11 in
  let d = Decomposition.build apsp ~k:3 in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to n - 1 do
    checki "a(u,0)=0" 0 (Decomposition.range d u 0);
    for i = 0 to 2 do
      checkb "nondecreasing" true (Decomposition.range d u (i + 1) >= Decomposition.range d u i);
      checkb "bounded by log delta" true (Decomposition.range d u (i + 1) <= Decomposition.log_delta d)
    done
  done

let test_decomposition_growth () =
  (* when a(u,i+1) < log_delta, |A(u,i+1)| >= kappa * |B(u, 2^{a(u,i)})| and
     the radius is minimal *)
  let apsp = prepared_graph 13 in
  let k = 3 in
  let d = Decomposition.build apsp ~k in
  let n = Graph.n (Apsp.graph apsp) in
  let kappa = float_of_int (Bits.ceil_pow (float_of_int n) (1.0 /. float_of_int k)) in
  for u = 0 to n - 1 do
    let ball = Apsp.ball apsp u in
    for i = 0 to k - 1 do
      let a_i = Decomposition.range d u i and a_i1 = Decomposition.range d u (i + 1) in
      let base = Ball.ball_size ball (Decomposition.radius_of_exponent a_i) in
      if a_i1 < Decomposition.log_delta d then begin
        let sz = Ball.ball_size ball (Decomposition.radius_of_exponent a_i1) in
        checkb "grew by kappa" true (float_of_int sz >= kappa *. float_of_int base);
        (* minimality *)
        if a_i1 > 1 then begin
          let prev = Ball.ball_size ball (Decomposition.radius_of_exponent (a_i1 - 1)) in
          checkb "minimal exponent" true (float_of_int prev < kappa *. float_of_int base)
        end
      end
    done
  done

let test_decomposition_density_definition () =
  let apsp = prepared_graph 17 in
  let d = Decomposition.build apsp ~k:3 in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to n - 1 do
    for i = 0 to 2 do
      let a_i = Decomposition.range d u i and a_i1 = Decomposition.range d u (i + 1) in
      let expect = a_i < a_i1 && a_i1 <= a_i + 3 in
      checkb "definition 2" true (Decomposition.is_dense d u i = expect)
    done
  done

let test_decomposition_r_set () =
  let apsp = prepared_graph 19 in
  let d = Decomposition.build apsp ~k:3 in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to n - 1 do
    let l = Decomposition.range_set d u in
    let r = Decomposition.extended_range_set d u in
    (* R(u) = exactly { i : exists a in L(u), -1 <= a - i <= 4 } *)
    for i = 0 to Decomposition.log_delta d do
      let expect = List.exists (fun a -> a - i >= -1 && a - i <= 4) l in
      checkb "R membership" true (List.mem i r = expect);
      checkb "level graph consistent" true (Decomposition.in_level_graph d u i = List.mem i r)
    done;
    (* |R(u)| <= 6 |L(u)| = O(k) *)
    checkb "R size O(k)" true (List.length r <= 6 * List.length l)
  done

let test_decomposition_lemma2 () =
  (* Lemma 2: if i dense for u and v in F(u,i) then a(u,i) in R(v) *)
  let apsp = prepared_graph 23 in
  let k = 3 in
  let d = Decomposition.build apsp ~k in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to n - 1 do
    for i = 0 to k - 1 do
      if Decomposition.is_dense d u i then begin
        let j = Decomposition.range d u i in
        Array.iter
          (fun v ->
            checkb
              (Printf.sprintf "lemma2 u=%d i=%d v=%d" u i v)
              true
              (List.mem j (Decomposition.extended_range_set d v)))
          (Decomposition.f_set d u i)
      end
    done
  done

let test_decomposition_neighborhoods () =
  let apsp = prepared_graph 29 in
  let d = Decomposition.build apsp ~k:2 in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to min 20 (n - 1) do
    Alcotest.(check (array int)) "A(u,0)" [| u |] (Decomposition.neighborhood d u 0);
    let a1 = Decomposition.neighborhood d u 1 in
    checkb "A(u,1) contains u" true (Array.exists (fun x -> x = u) a1);
    checki "size consistent" (Array.length a1) (Decomposition.neighborhood_size d u 1);
    (* F(u,i) is a subset of A(u,i) *)
    let f1 = Decomposition.f_set d u 1 in
    let in_a1 = Hashtbl.create 16 in
    Array.iter (fun x -> Hashtbl.replace in_a1 x ()) a1;
    Array.iter (fun x -> checkb "F inside A" true (Hashtbl.mem in_a1 x)) f1
  done

let test_decomposition_level_nodes () =
  let apsp = prepared_graph 31 in
  let d = Decomposition.build apsp ~k:3 in
  let n = Graph.n (Apsp.graph apsp) in
  List.iter
    (fun i ->
      let members = Decomposition.level_nodes d i in
      checkb "nonempty" true (Array.length members > 0);
      Array.iter (fun u -> checkb "membership consistent" true (Decomposition.in_level_graph d u i)) members)
    (Decomposition.needed_levels d);
  (* every node appears in at least one level *)
  for u = 0 to n - 1 do
    checkb "node in some level" true (Decomposition.extended_range_set d u <> [])
  done

let test_decomposition_dense_count_logarithmic () =
  (* the paper's observation: nodes have O(log n) dense levels; here
     the count is trivially <= k, but check it is well-defined *)
  let apsp = prepared_graph 37 in
  let d = Decomposition.build apsp ~k:4 in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to n - 1 do
    let c = Decomposition.dense_level_count d u in
    checkb "in range" true (c >= 0 && c <= 4)
  done

let test_decomposition_k1 () =
  let apsp = prepared_graph 41 in
  let d = Decomposition.build apsp ~k:1 in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to n - 1 do
    checki "a(u,0)" 0 (Decomposition.range d u 0);
    checkb "a(u,1) defined" true (Decomposition.range d u 1 >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Agm06 *)

let build_agm ?(n = 100) ?(k = 3) ?(mode = Agm06.Full) seed =
  let apsp = prepared_graph ~n seed in
  let agm = Agm06.build ~params:(Params.scaled ~k ~seed ()) ~mode apsp in
  (apsp, agm)

let test_agm06_delivers_everything () =
  let apsp, agm = build_agm 43 in
  let sch = Agm06.scheme agm in
  let n = Graph.n (Apsp.graph apsp) in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if (s + d) mod 7 = 0 then begin
        let m = Simulator.measure apsp sch s d in
        checkb (Printf.sprintf "delivered %d->%d" s d) true m.Simulator.delivered
      end
    done
  done

let test_agm06_self_route () =
  let apsp, agm = build_agm 47 in
  let sch = Agm06.scheme agm in
  let m = Simulator.measure apsp sch 5 5 in
  checkb "self delivered" true m.Simulator.delivered;
  checkf "zero cost" 0.0 m.Simulator.cost

let test_agm06_stretch_linear_in_k () =
  (* Theorem 1 shape: measured stretch should stay within a generous
     linear envelope c*k (c = 8 here) rather than the exponential regime *)
  let apsp = prepared_graph ~n:150 53 in
  let rng = Rng.create 99 in
  let pairs = Simulator.sample_pairs rng apsp ~count:400 in
  List.iter
    (fun k ->
      let agm = Agm06.build ~params:(Params.scaled ~k ()) apsp in
      let agg = Simulator.evaluate apsp (Agm06.scheme agm) pairs in
      checki "all delivered" (Array.length pairs) agg.Simulator.delivered;
      let limit = 8.0 *. float_of_int (max 2 k) in
      checkb
        (Printf.sprintf "k=%d mean stretch %.2f <= %.2f" k agg.Simulator.stretch_stats.Cr_util.Stats.mean limit)
        true
        (agg.Simulator.stretch_stats.Cr_util.Stats.mean <= limit))
    [ 1; 2; 3; 4 ]

let test_agm06_walks_are_valid () =
  (* Simulator.measure already validates; this asserts non-delivery never
     happens and walks end at the destination *)
  let apsp, agm = build_agm ~n:80 59 in
  let sch = Agm06.scheme agm in
  let rng = Rng.create 1 in
  let pairs = Simulator.sample_pairs rng apsp ~count:200 in
  Array.iter
    (fun (s, d) ->
      let m = Simulator.measure apsp sch s d in
      checkb "delivered" true m.Simulator.delivered;
      checkb "cost at least distance" true (m.Simulator.cost >= Apsp.distance apsp s d -. 1e-9))
    pairs

let test_agm06_name_independence () =
  (* relabeling nodes must not break routing: same topology, adversarial
     fresh names *)
  let rng = Rng.create 61 in
  let g0 = Generators.two_tier_isp rng ~core:6 ~access_per_core:8 in
  let g = Graph.normalize (Graph.relabel rng g0) in
  let apsp = Apsp.compute g in
  let agm = Agm06.build ~params:(Params.scaled ~k:3 ()) apsp in
  let sch = Agm06.scheme agm in
  let pairs = Simulator.sample_pairs rng apsp ~count:150 in
  Array.iter
    (fun (s, d) ->
      checkb "delivered" true (Simulator.measure apsp sch s d).Simulator.delivered)
    pairs

let test_agm06_stats_consistency () =
  let apsp, agm = build_agm ~n:60 67 in
  let sch = Agm06.scheme agm in
  let rng = Rng.create 2 in
  let pairs = Simulator.sample_pairs rng apsp ~count:100 in
  ignore (Simulator.evaluate apsp sch pairs);
  let st = Agm06.stats agm in
  checki "routes counted" 100 st.Agm06.routes;
  checki "delivered + failed = routes" 100 (st.Agm06.delivered + st.Agm06.failed);
  let phase_sum = Array.fold_left ( + ) 0 st.Agm06.phase_found in
  checki "phase sum = delivered" st.Agm06.delivered phase_sum

let test_agm06_storage_positive_everywhere () =
  let apsp, agm = build_agm ~n:90 71 in
  let sch = Agm06.scheme agm in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to n - 1 do
    checkb "node stores something" true (Storage.node_bits sch.Scheme.storage u > 0)
  done;
  (* categories present *)
  let cats = List.map fst (Storage.categories sch.Scheme.storage) in
  List.iter
    (fun c -> checkb (c ^ " present") true (List.mem c cats))
    [ "local"; "sparse-trees"; "fallback" ]

let test_agm06_paper_constants_small () =
  (* with paper constants on a small graph, everything is within the caps
     and the scheme still delivers *)
  let apsp = prepared_graph ~n:60 73 in
  let agm = Agm06.build ~params:(Params.paper ~k:2 ()) apsp in
  let sch = Agm06.scheme agm in
  let rng = Rng.create 3 in
  let pairs = Simulator.sample_pairs rng apsp ~count:100 in
  let agg = Simulator.evaluate apsp sch pairs in
  checki "all delivered" 100 agg.Simulator.delivered

let test_agm06_modes () =
  let apsp = prepared_graph ~n:80 79 in
  let rng = Rng.create 4 in
  let pairs = Simulator.sample_pairs rng apsp ~count:120 in
  List.iter
    (fun mode ->
      let agm = Agm06.build ~params:(Params.scaled ~k:3 ()) ~mode apsp in
      let agg = Simulator.evaluate apsp (Agm06.scheme agm) pairs in
      (* ablations may fail some pairs at intermediate phases but the
         global phase still guarantees delivery *)
      checki "delivered under ablation" (Array.length pairs) agg.Simulator.delivered)
    [ Agm06.Full; Agm06.Sparse_only; Agm06.Dense_only ]

let test_agm06_k1_degenerate () =
  let apsp = prepared_graph ~n:50 83 in
  let agm = Agm06.build ~params:(Params.scaled ~k:1 ()) apsp in
  let sch = Agm06.scheme agm in
  let rng = Rng.create 5 in
  let pairs = Simulator.sample_pairs rng apsp ~count:80 in
  let agg = Simulator.evaluate apsp sch pairs in
  checki "k=1 delivers" 80 agg.Simulator.delivered

let test_agm06_requires_normalized () =
  let g = Graph.create ~n:3 [ (0, 1, 0.25); (1, 2, 0.5) ] in
  let apsp = Apsp.compute g in
  checkb "unnormalized rejected" true
    (try ignore (Agm06.build apsp); false with Invalid_argument _ -> true)

let test_agm06_high_aspect_ratio () =
  (* dumbbell with a 2^20 bridge: huge aspect ratio, still works *)
  let g = Generators.dumbbell ~n_side:12 ~bridge_weight:(2.0 ** 20.0) in
  let rng = Rng.create 89 in
  let g = Graph.normalize (Graph.relabel rng g) in
  let apsp = Apsp.compute g in
  let agm = Agm06.build ~params:(Params.scaled ~k:3 ()) apsp in
  let sch = Agm06.scheme agm in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then begin
        let m = Simulator.measure apsp sch s d in
        checkb "delivered across bridge" true m.Simulator.delivered
      end
    done
  done

let test_agm06_deterministic () =
  let apsp = prepared_graph ~n:70 97 in
  let build () = Agm06.build ~params:(Params.scaled ~k:3 ~seed:7 ()) apsp in
  let a = Agm06.scheme (build ()) and b = Agm06.scheme (build ()) in
  let rng = Rng.create 6 in
  let pairs = Simulator.sample_pairs rng apsp ~count:60 in
  Array.iter
    (fun (s, d) ->
      let ra = a.Scheme.route s d and rb = b.Scheme.route s d in
      Alcotest.(check (list int)) "same walk" ra.Scheme.walk rb.Scheme.walk)
    pairs

let test_agm06_phase_plans_match_decomposition () =
  let apsp, agm = build_agm ~n:100 ~k:3 131 in
  let decomp = Agm06.decomposition agm in
  let n = Graph.n (Apsp.graph apsp) in
  for u = 0 to n - 1 do
    for i = 0 to 2 do
      match Agm06.phase_plan agm u i with
      | `Dense (level, root) ->
          checkb "dense plan on dense level" true (Decomposition.is_dense decomp u i);
          checki "dense level is a(u,i)" (Decomposition.range decomp u i) level;
          checkb "root valid" true (root >= 0 && root < n)
      | `Sparse (center, bound) ->
          checkb "sparse plan on sparse level" true (not (Decomposition.is_dense decomp u i));
          checkb "bound in range" true (bound >= 1 && bound <= 3);
          (* the center lies inside A(u,i) (or is u itself at level 0) *)
          if i = 0 then checki "level-0 center is u" u center
          else begin
            let a = Decomposition.neighborhood decomp u i in
            checkb "center inside A(u,i)" true (Array.exists (fun x -> x = center) a)
          end
    done
  done

let test_agm06_lemma8_dense_coverage () =
  (* Lemma 8: if i is dense for u, then F(u,i) = B(u, 2^{a(u,i)-1}) is
     fully contained in u's home cluster W(u,i) at level a(u,i) — the
     deterministic guarantee that dense phases deliver *)
  let apsp, agm = build_agm ~n:120 ~k:3 139 in
  let decomp = Agm06.decomposition agm in
  let n = Graph.n (Apsp.graph apsp) in
  let checked = ref 0 in
  for u = 0 to n - 1 do
    for i = 0 to 2 do
      if Decomposition.is_dense decomp u i then begin
        match Agm06.phase_plan agm u i with
        | `Dense (_, _) ->
            (* verify by routing: every v in F(u,i) must be found no later
               than phase i+1 when starting from u *)
            Array.iter
              (fun v ->
                if v <> u then begin
                  incr checked;
                  let r = (Agm06.scheme agm).Scheme.route u v in
                  checkb
                    (Printf.sprintf "lemma8 u=%d i=%d v=%d found by phase %d" u i v (i + 1))
                    true
                    (r.Scheme.delivered && r.Scheme.phases_used <= i + 1)
                end)
              (Decomposition.f_set decomp u i)
        | `Sparse _ -> Alcotest.fail "dense level must get a dense plan"
      end
    done
  done;
  checkb "exercised some dense coverage" true (!checked > 50)

let test_agm06_cost_never_below_distance () =
  let apsp, agm = build_agm ~n:90 ~k:3 149 in
  let sch = Agm06.scheme agm in
  let rng = Rng.create 151 in
  let pairs = Simulator.sample_pairs rng apsp ~count:200 in
  Array.iter
    (fun (s, d) ->
      let m = Simulator.measure apsp sch s d in
      checkb "walk cost >= shortest distance" true
        (m.Simulator.cost >= Apsp.distance apsp s d -. 1e-9))
    pairs

(* One MD5 over everything a build decides: per-node per-category bits,
   every phase plan, the centre count, the cover levels and each level's
   clusters (centre, members, tree parents, every node's home), and the
   walks of 200 sampled routes.  The graphs include the two cases where
   Dijkstra's settle order is not (distance, index) order — expline and
   a pl graph stretched to aspect 2^60 — and where most cover levels
   admit only some nodes.  The literal is the digest of the reference
   construction: a faster build must reproduce it unedited. *)
let test_agm06_frozen_build_digest () =
  let module Cover = Cr_cover.Sparse_cover in
  let module Tree = Cr_tree.Tree in
  let buf = Buffer.create (1 lsl 20) in
  let add fmt = Printf.bprintf buf fmt in
  let digest_build name ~k g =
    add "graph %s k=%d\n" name k;
    let apsp = Apsp.compute g in
    let agm = Agm06.build ~params:(Params.scaled ~k ~seed:1 ()) apsp in
    let n = Graph.n g in
    let storage = (Agm06.scheme agm).Scheme.storage in
    for u = 0 to n - 1 do
      add "s %d" u;
      List.iter (fun (cat, bits) -> add " %s=%d" cat bits) (Storage.node_categories storage u);
      for i = 0 to k - 1 do
        match Agm06.phase_plan agm u i with
        | `Sparse (c, b) -> add " S%d,%d" c b
        | `Dense (l, r) -> add " D%d,%d" l r
      done;
      add "\n"
    done;
    add "centers %d levels %s\n" (Agm06.center_count agm)
      (String.concat "," (List.map string_of_int (Agm06.cover_levels agm)));
    let decomp = Agm06.decomposition agm in
    List.iter
      (fun level ->
        let allowed u = Decomposition.in_level_graph decomp u level in
        let cover =
          Cover.build ~allowed ~k ~rho:(Decomposition.radius_of_exponent level) g
        in
        add "level %d\n" level;
        Array.iter
          (fun (c : Cover.cluster) ->
            add "c %d:" c.Cover.center;
            Array.iter
              (fun x -> add " %d/%d" x (Tree.parent c.Cover.tree x))
              c.Cover.members;
            add "\n")
          (Cover.clusters cover);
        add "home";
        for u = 0 to n - 1 do
          add " %d" (if allowed u then Cover.home cover u else -1)
        done;
        add "\n")
      (Agm06.cover_levels agm);
    let sch = Agm06.scheme agm in
    Array.iter
      (fun (s, d) ->
        let r = sch.Scheme.route s d in
        add "r %b %d:" r.Scheme.delivered r.Scheme.phases_used;
        List.iter (fun v -> add " %d" v) r.Scheme.walk;
        add "\n")
      (Experiment.default_pairs ~seed:1 apsp ~count:200)
  in
  let plain w = Experiment.make_graph ~seed:1 w in
  let pl n = Experiment.Power_law { n; exponent = 2.5 } in
  List.iter
    (fun (name, k, g) -> digest_build name ~k g)
    [
      ("er:256", 3, plain (Experiment.Erdos_renyi { n = 256; avg_degree = 4.0 }));
      ("geo:256", 3, plain (Experiment.Geometric { n = 256; radius = 0.15 }));
      ("pl:512", 3, plain (pl 512));
      ("grid:16x16", 3, plain (Experiment.Grid { rows = 16; cols = 16 }));
      ("expline:64:2", 3, plain (Experiment.Exp_line { n = 64; base = 2.0 }));
      ( "pl:256 aspect 2^60",
        3,
        Experiment.make_graph_with_aspect ~seed:1 ~target_aspect:(2.0 ** 60.0) (pl 256) );
      ("pl:256 k=2", 2, plain (pl 256));
    ];
  Alcotest.(check string)
    "build digest" "0c81867387387bd36b7256b5c07aa8de"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_agm06_describe_node () =
  let _, agm = build_agm ~n:60 ~k:2 137 in
  let s = Agm06.describe_node agm 5 in
  checkb "mentions node" true (contains_substring s "node 5");
  checkb "mentions storage" true (contains_substring s "total");
  checkb "mentions global root" true (contains_substring s "global root")

(* ------------------------------------------------------------------ *)
(* Distance_oracle (Thorup-Zwick [30]) *)

let test_oracle_exact_for_k1 () =
  let apsp = prepared_graph ~n:60 211 in
  let oracle = Distance_oracle.build ~k:1 apsp in
  for u = 0 to 59 do
    for v = 0 to 59 do
      checkb "k=1 exact" true
        (Float.abs (Distance_oracle.query oracle u v -. Apsp.distance apsp u v) < 1e-9)
    done
  done

let test_oracle_stretch_bound () =
  let apsp = prepared_graph ~n:120 223 in
  List.iter
    (fun k ->
      let oracle = Distance_oracle.build ~k apsp in
      let bound = Distance_oracle.stretch_bound oracle in
      for u = 0 to 119 do
        for v = 0 to 119 do
          if u <> v then begin
            let est = Distance_oracle.query oracle u v in
            let true_d = Apsp.distance apsp u v in
            checkb "never underestimates" true (est >= true_d -. 1e-9);
            checkb
              (Printf.sprintf "k=%d stretch %.2f <= %.0f" k (est /. true_d) bound)
              true
              (est <= (bound *. true_d) +. 1e-9)
          end
        done
      done)
    [ 2; 3; 4 ]

let test_oracle_self_and_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1, 1.0); (2, 3, 2.0) ] in
  let apsp = Apsp.compute g in
  let oracle = Distance_oracle.build ~k:2 apsp in
  checkf "self" 0.0 (Distance_oracle.query oracle 1 1);
  checkb "disconnected" true (Distance_oracle.query oracle 0 3 = infinity)

let test_oracle_size_sublinear_per_node () =
  (* expected bunch size O(k n^{1/k}): entries/n should grow slowly *)
  let a = prepared_graph ~n:100 227 in
  let b = prepared_graph ~n:400 227 in
  let oa = Distance_oracle.build ~k:2 a and ob = Distance_oracle.build ~k:2 b in
  let per_a = float_of_int (Distance_oracle.size_entries oa) /. 100.0 in
  let per_b = float_of_int (Distance_oracle.size_entries ob) /. 400.0 in
  (* n grew 4x; sqrt shape predicts ~2x; allow 3x *)
  checkb (Printf.sprintf "bunch growth %.2fx" (per_b /. per_a)) true (per_b /. per_a < 3.0);
  checkb "storage positive" true (Distance_oracle.storage_bits oa > 0)

(* ------------------------------------------------------------------ *)
(* Tz_hierarchy *)

(* Reference for Tz_hierarchy's pivots, the direct O(n²k) loop: p_j(u)
   is the argmin of (d(u, v), v) over the nodes v with level.(v) >= j. *)
let reference_pivots apsp ~level ~k =
  let n = Graph.n (Apsp.graph apsp) in
  let pivots = Array.make_matrix n k (-1) in
  let pivot_dist = Array.make_matrix n k infinity in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let d = Apsp.distance apsp u v in
      if d < infinity then
        for j = 0 to level.(v) do
          if
            d < pivot_dist.(u).(j)
            || (d = pivot_dist.(u).(j) && (pivots.(u).(j) = -1 || v < pivots.(u).(j)))
          then begin
            pivot_dist.(u).(j) <- d;
            pivots.(u).(j) <- v
          end
        done
    done
  done;
  (pivots, pivot_dist)

(* A connected graph whose integer weights 1-3 make distance ties
   common; [stretch] multiplies each weight by up to 2^60, where
   rounding can make Dijkstra's settle order differ from (distance,
   index) order. *)
let tied_graph ~seed ~n ~stretch =
  let rng = Rng.create seed in
  let g = Generators.erdos_renyi rng ~n ~avg_degree:3.0 in
  let g = Graph.reweight g (fun _ _ _ -> float_of_int (1 + Rng.int rng 3)) in
  if stretch then Generators.stretch_weights rng g ~target_aspect:(2.0 ** 60.0) else g

let tz_hierarchy_matches_definition (seed, n, k, stretch, node_indexed) =
  let apsp = Apsp.compute (tied_graph ~seed ~n ~stretch) in
  let sampling = if node_indexed then Tz_hierarchy.Node_indexed else Tz_hierarchy.Sequential in
  let h = Tz_hierarchy.build sampling ~k ~seed apsp in
  let level = h.Tz_hierarchy.level in
  let pivots, pivot_dist = reference_pivots apsp ~level ~k in
  let levels_ok =
    Array.for_all (fun l -> 0 <= l && l < k) level
    && (k = 1 || Array.exists (fun l -> l = k - 1) level)
  in
  (* distance_oracle.mli: B(u) = ∪_j {w ∈ A_j \ A_{j+1} : d(u,w) < d(u, p_{j+1}(u))} *)
  let by_definition u w =
    let d = Apsp.distance apsp u w in
    List.exists
      (fun j -> level.(w) = j && d < if j + 1 < k then pivot_dist.(u).(j + 1) else infinity)
      (List.init k Fun.id)
  in
  let bunches_ok = ref true in
  for u = 0 to n - 1 do
    let row = (Apsp.sssp apsp u).Cr_graph.Dijkstra.dist in
    for w = 0 to n - 1 do
      if Tz_hierarchy.in_bunch h u w row w <> by_definition u w then bunches_ok := false
    done
  done;
  levels_ok && h.Tz_hierarchy.pivots = pivots && h.Tz_hierarchy.pivot_dist = pivot_dist
  && !bunches_ok

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"agm06 delivers on random graphs" ~count:8
      (pair (int_range 0 500) (int_range 30 80))
      (fun (seed, n) ->
        let apsp = prepared_graph ~n seed in
        let agm = Agm06.build ~params:(Params.scaled ~k:3 ~seed ()) apsp in
        let sch = Agm06.scheme agm in
        let rng = Rng.create (seed + 1) in
        let pairs = Simulator.sample_pairs rng apsp ~count:40 in
        Array.for_all (fun (s, d) -> (Simulator.measure apsp sch s d).Simulator.delivered) pairs);
    Test.make ~name:"distance oracle estimate within [d, (2k-1)d]" ~count:10
      (pair (int_range 0 500) (int_range 1 4))
      (fun (seed, k) ->
        let apsp = prepared_graph ~n:60 seed in
        let o = Distance_oracle.build ~k ~seed apsp in
        let bound = Distance_oracle.stretch_bound o in
        let ok = ref true in
        for u = 0 to 59 do
          for v = u + 1 to 59 do
            let d = Apsp.distance apsp u v in
            let e = Distance_oracle.query o u v in
            if d = infinity then (if e <> infinity then ok := false)
            else if e < d -. 1e-9 || e > (bound *. d) +. 1e-9 then ok := false
          done
        done;
        !ok);
    Test.make ~name:"distance oracle query is symmetric" ~count:10
      (pair (int_range 0 500) (int_range 1 4))
      (fun (seed, k) ->
        let apsp = prepared_graph ~n:50 seed in
        let o = Distance_oracle.build ~k ~seed apsp in
        let ok = ref true in
        for u = 0 to 49 do
          for v = 0 to 49 do
            (* exact equality: both directions run the canonical walk *)
            if Distance_oracle.query o u v <> Distance_oracle.query o v u then ok := false
          done
        done;
        !ok);
    Test.make ~name:"distance oracle build is deterministic per seed" ~count:8
      (pair (int_range 0 500) (int_range 1 4))
      (fun (seed, k) ->
        let apsp = prepared_graph ~n:40 seed in
        let a = Distance_oracle.build ~k ~seed apsp in
        let b = Distance_oracle.build ~k ~seed apsp in
        let ok = ref true in
        if Distance_oracle.size_entries a <> Distance_oracle.size_entries b then ok := false;
        for u = 0 to 39 do
          for v = 0 to 39 do
            if Distance_oracle.query a u v <> Distance_oracle.query b u v then ok := false
          done
        done;
        !ok);
    Test.make ~name:"tz hierarchy matches its definition" ~count:200
      (make
         ~print:(fun (seed, n, k, stretch, node_indexed) ->
           Printf.sprintf "seed=%d n=%d k=%d stretch=%b node_indexed=%b" seed n k stretch
             node_indexed)
         Gen.(
           map
             (fun ((seed, n, k), (stretch, node_indexed)) -> (seed, n, k, stretch, node_indexed))
             (pair (triple (int_range 0 1000) (int_range 5 60) (int_range 1 5)) (pair bool bool))))
      tz_hierarchy_matches_definition;
    Test.make ~name:"decomposition ranges valid on random graphs" ~count:15
      (pair (int_range 0 500) (int_range 2 4))
      (fun (seed, k) ->
        let apsp = prepared_graph ~n:60 seed in
        let d = Decomposition.build apsp ~k in
        let ok = ref true in
        for u = 0 to 59 do
          if Decomposition.range d u 0 <> 0 then ok := false;
          for i = 0 to k - 1 do
            if Decomposition.range d u (i + 1) < Decomposition.range d u i then ok := false
          done
        done;
        !ok);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "core"
    [
      ( "params",
        [
          Alcotest.test_case "presets" `Quick test_params_presets;
          Alcotest.test_case "cap monotone" `Quick test_params_cap_monotone_in_n;
        ] );
      ( "storage",
        [
          Alcotest.test_case "accounting" `Quick test_storage_accounting;
          Alcotest.test_case "merge" `Quick test_storage_merge;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "walk cost" `Quick test_simulator_walk_cost;
          Alcotest.test_case "measure" `Quick test_simulator_measure;
          Alcotest.test_case "evaluate" `Quick test_simulator_evaluate;
          Alcotest.test_case "sample pairs" `Quick test_simulator_sample_pairs;
          Alcotest.test_case "sample pairs shortfall" `Quick test_simulator_sample_pairs_shortfall;
          Alcotest.test_case "check walk outcomes" `Quick test_simulator_check_walk_outcomes;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "ranges monotone" `Quick test_decomposition_ranges_monotone;
          Alcotest.test_case "growth condition" `Quick test_decomposition_growth;
          Alcotest.test_case "density definition" `Quick test_decomposition_density_definition;
          Alcotest.test_case "R set" `Quick test_decomposition_r_set;
          Alcotest.test_case "lemma 2" `Quick test_decomposition_lemma2;
          Alcotest.test_case "neighborhoods" `Quick test_decomposition_neighborhoods;
          Alcotest.test_case "level nodes" `Quick test_decomposition_level_nodes;
          Alcotest.test_case "dense count" `Quick test_decomposition_dense_count_logarithmic;
          Alcotest.test_case "k=1" `Quick test_decomposition_k1;
        ] );
      ( "agm06",
        [
          Alcotest.test_case "delivers everything" `Quick test_agm06_delivers_everything;
          Alcotest.test_case "self route" `Quick test_agm06_self_route;
          Alcotest.test_case "stretch linear in k" `Slow test_agm06_stretch_linear_in_k;
          Alcotest.test_case "walks valid" `Quick test_agm06_walks_are_valid;
          Alcotest.test_case "name independence" `Quick test_agm06_name_independence;
          Alcotest.test_case "stats consistency" `Quick test_agm06_stats_consistency;
          Alcotest.test_case "storage positive" `Quick test_agm06_storage_positive_everywhere;
          Alcotest.test_case "paper constants" `Quick test_agm06_paper_constants_small;
          Alcotest.test_case "ablation modes" `Quick test_agm06_modes;
          Alcotest.test_case "k=1 degenerate" `Quick test_agm06_k1_degenerate;
          Alcotest.test_case "requires normalized" `Quick test_agm06_requires_normalized;
          Alcotest.test_case "high aspect ratio" `Quick test_agm06_high_aspect_ratio;
          Alcotest.test_case "deterministic" `Quick test_agm06_deterministic;
          Alcotest.test_case "phase plans match decomposition" `Quick test_agm06_phase_plans_match_decomposition;
          Alcotest.test_case "describe node" `Quick test_agm06_describe_node;
          Alcotest.test_case "lemma 8 dense coverage" `Quick test_agm06_lemma8_dense_coverage;
          Alcotest.test_case "cost >= distance" `Quick test_agm06_cost_never_below_distance;
          Alcotest.test_case "frozen build digest" `Quick test_agm06_frozen_build_digest;
        ] );
      ( "distance_oracle",
        [
          Alcotest.test_case "k=1 exact" `Quick test_oracle_exact_for_k1;
          Alcotest.test_case "stretch bound 2k-1" `Quick test_oracle_stretch_bound;
          Alcotest.test_case "self and disconnected" `Quick test_oracle_self_and_disconnected;
          Alcotest.test_case "size sublinear" `Quick test_oracle_size_sublinear_per_node;
        ] );
      ("properties", qsuite);
    ]
