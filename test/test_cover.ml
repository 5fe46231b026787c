(* Tests for the sparse-cover construction (Lemma 6) and the landmark
   hierarchy (§2.3, Claims 1-2). *)

module Rng = Cr_util.Rng
module Bits = Cr_util.Bits
module Graph = Cr_graph.Graph
module Dijkstra = Cr_graph.Dijkstra
module Ball = Cr_graph.Ball
module Generators = Cr_graph.Generators
module Tree = Cr_tree.Tree
module Cover = Cr_cover.Sparse_cover
module Landmarks = Cr_landmark.Landmarks

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Sparse_cover: the four Lemma 6 properties *)

let lemma6_properties name g ~k ~rho =
  let cover = Cover.build ~k ~rho g in
  (* 1. Cover *)
  checkb (name ^ ": cover property") true (Cover.check_cover cover);
  (* 2. Sparse (empirical vs paper bound 2k n^{1/k}) *)
  let n = Graph.n g in
  let kappa = Bits.ceil_pow (float_of_int n) (1.0 /. float_of_int k) in
  let bound = 2 * k * kappa in
  let overlap = Cover.max_overlap cover in
  checkb
    (Printf.sprintf "%s: sparsity %d <= %d" name overlap bound)
    true (overlap <= bound);
  (* 3. Small radius: rad <= (2k+1) rho guaranteed by construction
     (the paper's refined constant is (2k-1) rho; T5 reports measured) *)
  let rad_bound = float_of_int ((2 * k) + 1) *. rho in
  checkb
    (Printf.sprintf "%s: radius %.3f <= %.3f" name (Cover.max_radius cover) rad_bound)
    true
    (Cover.max_radius cover <= rad_bound +. 1e-9);
  (* 4. Small edges: maxE <= 2 rho *)
  checkb (name ^ ": max tree edge <= 2rho") true
    (Cover.max_tree_edge cover <= (2.0 *. rho) +. 1e-9);
  cover

let test_cover_er () =
  let rng = Rng.create 3 in
  let g = Generators.erdos_renyi rng ~n:150 ~avg_degree:4.0 in
  ignore (lemma6_properties "er/k2" g ~k:2 ~rho:2.0);
  ignore (lemma6_properties "er/k3" g ~k:3 ~rho:4.0)

let test_cover_grid () =
  let g = Generators.grid ~rows:10 ~cols:12 in
  ignore (lemma6_properties "grid/k2" g ~k:2 ~rho:3.0);
  ignore (lemma6_properties "grid/k3" g ~k:3 ~rho:1.0)

let test_cover_geometric () =
  let rng = Rng.create 7 in
  let g = Generators.random_geometric rng ~n:120 ~radius:0.25 in
  ignore (lemma6_properties "geo/k3" g ~k:3 ~rho:2.0)

let test_cover_tree_graph () =
  let rng = Rng.create 11 in
  let g = Generators.random_tree rng ~n:100 in
  ignore (lemma6_properties "tree/k2" g ~k:2 ~rho:2.5)

let test_cover_small_rho () =
  (* rho below min edge weight: balls are singletons, clusters tiny *)
  let g = Generators.grid ~rows:6 ~cols:6 in
  let cover = lemma6_properties "grid/tiny-rho" g ~k:2 ~rho:0.5 in
  checki "each ball singleton -> each node its own home" 36 (Array.length (Cover.clusters cover))

let test_cover_huge_rho () =
  (* rho beyond the diameter: one cluster covers everything *)
  let g = Generators.grid ~rows:5 ~cols:5 in
  let cover = Cover.build ~k:3 ~rho:100.0 g in
  checki "single cluster" 1 (Array.length (Cover.clusters cover));
  checkb "cover" true (Cover.check_cover cover)

let test_cover_allowed_subgraph () =
  (* restrict to even nodes of a ring: cover only sees the allowed part *)
  let rng = Rng.create 13 in
  let g = Generators.ring_with_chords rng ~n:40 ~chords:10 in
  let allowed v = v < 20 in
  let cover = Cover.build ~allowed ~k:2 ~rho:2.0 g in
  Array.iter
    (fun (c : Cover.cluster) ->
      Array.iter (fun v -> checkb "member allowed" true (allowed v)) c.Cover.members)
    (Cover.clusters cover);
  checkb "cover on subgraph" true (Cover.check_cover cover);
  (* home of a disallowed node raises *)
  checkb "home of disallowed raises" true
    (try ignore (Cover.home cover 25); false with Invalid_argument _ -> true)

let test_cover_home_contains_ball () =
  let rng = Rng.create 17 in
  let g = Generators.erdos_renyi rng ~n:100 ~avg_degree:4.0 in
  let rho = 2.0 in
  let cover = Cover.build ~k:3 ~rho g in
  for u = 0 to Graph.n g - 1 do
    let c = (Cover.clusters cover).(Cover.home cover u) in
    let members = Hashtbl.create 16 in
    Array.iter (fun x -> Hashtbl.replace members x ()) c.Cover.members;
    let ball = Ball.of_dijkstra (Dijkstra.run_bounded g u rho) in
    Array.iter
      (fun x -> checkb "ball member in home cluster" true (Hashtbl.mem members x))
      (Ball.ball ball rho)
  done

let test_cover_trees_are_rooted_at_centers () =
  let rng = Rng.create 19 in
  let g = Generators.erdos_renyi rng ~n:80 ~avg_degree:3.5 in
  let cover = Cover.build ~k:2 ~rho:3.0 g in
  Array.iter
    (fun (c : Cover.cluster) ->
      checki "root is center" c.Cover.center (Tree.root c.Cover.tree);
      (* tree spans exactly the members *)
      checki "tree spans members" (Array.length c.Cover.members) (Tree.size c.Cover.tree);
      Array.iter (fun v -> checkb "member in tree" true (Tree.mem c.Cover.tree v)) c.Cover.members)
    (Cover.clusters cover)

(* Two facts the build rests on, at every level a k = 3 AGM06 build
   covers: (a) in G[V_i], x ∈ B(u, ρ) iff u ∈ B(x, ρ), so a node's own
   ball lists the balls that contain it, even where weights are floats
   and distances are summed from opposite ends of a path; (b) reading
   the balls from an APSP, as AGM06 does on whole-graph levels, gives
   the cover that searching them gives. *)
let test_cover_levels_symmetric_and_apsp () =
  let module Apsp = Cr_graph.Apsp in
  let module Decomposition = Compact_routing.Decomposition in
  let module Experiment = Compact_routing.Experiment in
  let geo = Experiment.Geometric { n = 256; radius = 0.15 } in
  let pl n = Experiment.Power_law { n; exponent = 2.5 } in
  let stretched aspect w = Experiment.make_graph_with_aspect ~seed:1 ~target_aspect:aspect w in
  let describe cover allowed n =
    let buf = Buffer.create 4096 in
    Array.iter
      (fun (c : Cover.cluster) ->
        Printf.bprintf buf "c %d:" c.Cover.center;
        Array.iter (fun x -> Printf.bprintf buf " %d/%d" x (Tree.parent c.Cover.tree x)) c.Cover.members;
        Buffer.add_char buf '\n')
      (Cover.clusters cover);
    for u = 0 to n - 1 do
      Printf.bprintf buf " %d" (if allowed u then Cover.home cover u else -1)
    done;
    Buffer.contents buf
  in
  let levels = ref 0 in
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let apsp = Apsp.compute g in
      let decomp = Decomposition.build apsp ~k:3 in
      let sc = Dijkstra.scratch g in
      let mark = Array.make n (-1) in
      List.iter
        (fun level ->
          incr levels;
          let in_level = Array.init n (fun u -> Decomposition.in_level_graph decomp u level) in
          let allowed u = in_level.(u) in
          let rho = Decomposition.radius_of_exponent level in
          let where = Printf.sprintf "%s level %d" name level in
          (* (a): the reverse index {u : x ∈ B(u)} equals B(x) *)
          let balls =
            Array.init n (fun u ->
                if allowed u then (Dijkstra.run_in sc ~allowed ~bound:rho u).Dijkstra.order else [||])
          in
          let holders = Array.make n [] in
          for u = n - 1 downto 0 do
            Array.iter (fun x -> holders.(x) <- u :: holders.(x)) balls.(u)
          done;
          let symmetric = ref true in
          for x = 0 to n - 1 do
            Array.iter (fun u -> mark.(u) <- x) balls.(x);
            if List.length holders.(x) <> Array.length balls.(x)
               || List.exists (fun u -> mark.(u) <> x) holders.(x)
            then symmetric := false
          done;
          checkb (where ^ ": ball membership symmetric") true !symmetric;
          (* (b): searched and APSP-read balls give one cover *)
          Alcotest.(check string)
            (where ^ ": same cover with and without apsp")
            (describe (Cover.build ~allowed ~k:3 ~rho g) allowed n)
            (describe (Cover.build ~apsp ~allowed ~k:3 ~rho g) allowed n))
        (Decomposition.needed_levels decomp))
    [
      ("geo:256", Experiment.make_graph ~seed:1 geo);
      ("pl:256 aspect 2^60", stretched (2.0 ** 60.0) (pl 256));
      ("geo:256 aspect 2^20", stretched (2.0 ** 20.0) geo);
      ("pl:512", Experiment.make_graph ~seed:1 (pl 512));
    ];
  checkb "levels checked" true (!levels > 0)

let test_cover_invalid_args () =
  let g = Generators.grid ~rows:3 ~cols:3 in
  checkb "k=0 rejected" true
    (try ignore (Cover.build ~k:0 ~rho:1.0 g); false with Invalid_argument _ -> true);
  checkb "rho=0 rejected" true
    (try ignore (Cover.build ~k:2 ~rho:0.0 g); false with Invalid_argument _ -> true)

let test_cover_disconnected_graph () =
  let g = Graph.create ~n:6 [ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0); (4, 5, 1.0) ] in
  let cover = Cover.build ~k:2 ~rho:1.5 g in
  checkb "cover across components" true (Cover.check_cover cover);
  (* no cluster mixes components *)
  Array.iter
    (fun (c : Cover.cluster) ->
      let sides = Array.map (fun v -> v < 3) c.Cover.members in
      let all_same = Array.for_all (fun s -> s = sides.(0)) sides in
      checkb "single component per cluster" true all_same)
    (Cover.clusters cover)

(* ------------------------------------------------------------------ *)
(* Landmarks *)

let test_landmarks_structure () =
  let lm = Landmarks.build ~seed:1 ~n:500 ~k:3 in
  checki "n" 500 (Landmarks.n lm);
  checki "k" 3 (Landmarks.k lm);
  (* C_0 = V *)
  checki "C0 is everything" 500 (Landmarks.level_size lm 0);
  (* ranks within range *)
  for v = 0 to 499 do
    let r = Landmarks.rank lm v in
    checkb "rank range" true (r >= 0 && r <= 2)
  done;
  (* levels nested *)
  for j = 1 to 2 do
    checkb "nested" true (Landmarks.level_size lm j <= Landmarks.level_size lm (j - 1));
    Array.iter
      (fun v -> checkb "level j implies level j-1" true (Landmarks.in_level lm v (j - 1)))
      (Landmarks.level lm j)
  done

let test_landmarks_deterministic () =
  let a = Landmarks.build ~seed:42 ~n:300 ~k:4 in
  let b = Landmarks.build ~seed:42 ~n:300 ~k:4 in
  for v = 0 to 299 do
    checki "same ranks" (Landmarks.rank a v) (Landmarks.rank b v)
  done;
  let c = Landmarks.build ~seed:43 ~n:300 ~k:4 in
  let diff = ref 0 in
  for v = 0 to 299 do
    if Landmarks.rank a v <> Landmarks.rank c v then incr diff
  done;
  checkb "different seed differs" true (!diff > 0)

let test_landmarks_sampling_rate () =
  (* |C_1| should be about n * (n/ln n)^{-1/k} *)
  let n = 4000 and k = 2 in
  let lm = Landmarks.build ~seed:7 ~n ~k in
  let p = (float_of_int n /. Float.log (float_of_int n)) ** (-1.0 /. float_of_int k) in
  let expected = float_of_int n *. p in
  let got = float_of_int (Landmarks.level_size lm 1) in
  checkb
    (Printf.sprintf "C1 size %.0f within 3x of %.0f" got expected)
    true
    (got > expected /. 3.0 && got < expected *. 3.0)

let test_landmarks_k1 () =
  (* k = 1: only C_0 exists; everything rank 0 *)
  let lm = Landmarks.build ~seed:3 ~n:50 ~k:1 in
  for v = 0 to 49 do
    checki "rank 0" 0 (Landmarks.rank lm v)
  done;
  checki "C0" 50 (Landmarks.level_size lm 0)

let test_landmarks_nearby () =
  let rng = Rng.create 23 in
  let g = Generators.erdos_renyi rng ~n:200 ~avg_degree:4.0 in
  let lm = Landmarks.build ~seed:5 ~n:200 ~k:3 in
  let ball = Ball.of_dijkstra (Dijkstra.run g 0) in
  let s = Landmarks.nearby lm ball ~level:1 ~cap:10 in
  checkb "at most cap" true (Array.length s <= 10);
  Array.iter (fun v -> checkb "all level 1" true (Landmarks.in_level lm v 1)) s;
  (* sorted by distance *)
  let ok = ref true in
  for i = 0 to Array.length s - 2 do
    if Ball.distance ball s.(i) > Ball.distance ball s.(i + 1) then ok := false
  done;
  checkb "sorted by distance" true !ok;
  (* cap larger than level: returns whole level *)
  let all1 = Landmarks.nearby lm ball ~level:1 ~cap:10_000 in
  checki "whole level" (Landmarks.level_size lm 1) (Array.length all1);
  (* S(u) is the union of the per-level sets, from every source and at
     caps that fill every level, some levels, or none *)
  for u = 0 to 199 do
    let ball = Ball.of_dijkstra (Dijkstra.run g u) in
    List.iter
      (fun cap ->
        let union =
          List.init 3 (fun level -> Array.to_list (Landmarks.nearby lm ball ~level ~cap))
          |> List.concat |> List.sort_uniq compare |> Array.of_list
        in
        let s = Landmarks.nearby_set lm ball ~cap in
        Array.sort compare s;
        Alcotest.(check (array int)) "S(u)" union s)
      [ 1; 10; 60; 10_000 ]
  done

let test_landmarks_center_in () =
  let rng = Rng.create 29 in
  let g = Generators.erdos_renyi rng ~n:150 ~avg_degree:4.0 in
  let lm = Landmarks.build ~seed:9 ~n:150 ~k:3 in
  let ball = Ball.of_dijkstra (Dijkstra.run g 0) in
  (match Landmarks.center_in lm ball ~radius:5.0 with
  | None -> Alcotest.fail "ball around 0 of radius 5 cannot be empty"
  | Some c ->
      let members = Ball.ball ball 5.0 in
      let m = Landmarks.highest_rank_in lm members in
      checki "center has highest rank" m (Landmarks.rank lm c);
      (* no strictly closer landmark of that rank *)
      Array.iter
        (fun v ->
          if Landmarks.rank lm v >= m then
            checkb "closest" true (Ball.distance ball c <= Ball.distance ball v))
        members);
  checkb "empty ball" true (Landmarks.center_in lm ball ~radius:(-1.0) = None)

let test_landmarks_highest_rank_in () =
  let lm = Landmarks.build ~seed:11 ~n:100 ~k:4 in
  checki "empty" (-1) (Landmarks.highest_rank_in lm [||]);
  let all = Array.init 100 (fun i -> i) in
  let m = Landmarks.highest_rank_in lm all in
  checkb "some rank" true (m >= 0 && m <= 3)

let test_claims_on_random_balls () =
  (* Claims 1 and 2, evaluated on every ball B(u, 2^i) of a graph *)
  let rng = Rng.create 31 in
  let g = Generators.erdos_renyi rng ~n:400 ~avg_degree:5.0 in
  let k = 3 in
  let lm = Landmarks.build ~seed:13 ~n:400 ~k in
  let violations1 = ref 0 and violations2 = ref 0 and checked = ref 0 in
  for u = 0 to 99 do
    let ball = Ball.of_dijkstra (Dijkstra.run g u) in
    for i = 0 to 6 do
      let members = Ball.ball ball (2.0 ** float_of_int i) in
      for j = 0 to k - 1 do
        incr checked;
        if not (Landmarks.check_claim1 lm members j) then incr violations1;
        if not (Landmarks.check_claim2 lm members j) then incr violations2
      done
    done
  done;
  checkb "claims evaluated" true (!checked > 0);
  checki "claim 1 violations" 0 !violations1;
  checki "claim 2 violations" 0 !violations2

let test_claims_thresholds_monotone () =
  let lm = Landmarks.build ~seed:17 ~n:1000 ~k:4 in
  for j = 0 to 2 do
    checkb "claim1 threshold grows in j" true
      (Landmarks.claim1_threshold lm j <= Landmarks.claim1_threshold lm (j + 1))
  done;
  checkb "claim2 count limit positive" true (Landmarks.claim2_count_limit lm > 0.0)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"cover holds on random graphs" ~count:15
      (pair (int_range 0 1000) (int_range 20 80))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let g = Generators.erdos_renyi rng ~n ~avg_degree:3.0 in
        let cover = Cover.build ~k:2 ~rho:2.0 g in
        Cover.check_cover cover
        && Cover.max_radius cover <= (5.0 *. 2.0) +. 1e-9
        && Cover.max_tree_edge cover <= 4.0 +. 1e-9);
    Test.make ~name:"every node has a home containing it" ~count:15
      (pair (int_range 0 1000) (int_range 15 60))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let g = Generators.erdos_renyi rng ~n ~avg_degree:3.0 in
        let cover = Cover.build ~k:3 ~rho:1.5 g in
        let ok = ref true in
        for v = 0 to n - 1 do
          let c = (Cover.clusters cover).(Cover.home cover v) in
          if not (Array.exists (fun x -> x = v) c.Cover.members) then ok := false
        done;
        !ok);
    Test.make ~name:"landmark ranks bounded and nested" ~count:30
      (pair (int_range 0 1000) (int_range 2 6))
      (fun (seed, k) ->
        let lm = Landmarks.build ~seed ~n:200 ~k in
        let ok = ref true in
        for v = 0 to 199 do
          let r = Landmarks.rank lm v in
          if r < 0 || r > k - 1 then ok := false;
          for j = 0 to k do
            let inj = Landmarks.in_level lm v j in
            if j = 0 && not inj then ok := false;
            if j = k && inj then ok := false;
            if j >= 1 && j < k && inj <> (r >= j) then ok := false
          done
        done;
        !ok);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cover"
    [
      ( "sparse_cover",
        [
          Alcotest.test_case "lemma6 on erdos-renyi" `Quick test_cover_er;
          Alcotest.test_case "lemma6 on grid" `Quick test_cover_grid;
          Alcotest.test_case "lemma6 on geometric" `Quick test_cover_geometric;
          Alcotest.test_case "lemma6 on tree graph" `Quick test_cover_tree_graph;
          Alcotest.test_case "tiny rho" `Quick test_cover_small_rho;
          Alcotest.test_case "huge rho" `Quick test_cover_huge_rho;
          Alcotest.test_case "allowed subgraph" `Quick test_cover_allowed_subgraph;
          Alcotest.test_case "home contains ball" `Quick test_cover_home_contains_ball;
          Alcotest.test_case "trees rooted at centers" `Quick test_cover_trees_are_rooted_at_centers;
          Alcotest.test_case "ball symmetry and apsp path" `Quick test_cover_levels_symmetric_and_apsp;
          Alcotest.test_case "invalid args" `Quick test_cover_invalid_args;
          Alcotest.test_case "disconnected graph" `Quick test_cover_disconnected_graph;
        ] );
      ( "landmarks",
        [
          Alcotest.test_case "structure" `Quick test_landmarks_structure;
          Alcotest.test_case "deterministic" `Quick test_landmarks_deterministic;
          Alcotest.test_case "sampling rate" `Quick test_landmarks_sampling_rate;
          Alcotest.test_case "k=1" `Quick test_landmarks_k1;
          Alcotest.test_case "nearby" `Quick test_landmarks_nearby;
          Alcotest.test_case "center_in" `Quick test_landmarks_center_in;
          Alcotest.test_case "highest rank" `Quick test_landmarks_highest_rank_in;
          Alcotest.test_case "claims 1 and 2" `Quick test_claims_on_random_balls;
          Alcotest.test_case "claim thresholds" `Quick test_claims_thresholds_monotone;
        ] );
      ("properties", qsuite);
    ]
