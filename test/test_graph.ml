(* Tests for the cr_graph library: graph structure, heap, union-find,
   Dijkstra (cross-checked against Bellman-Ford), balls, APSP,
   components, generators and I/O. *)

module Rng = Cr_util.Rng
module Graph = Cr_graph.Graph
module Heap = Cr_graph.Heap
module Unionfind = Cr_graph.Unionfind
module Dijkstra = Cr_graph.Dijkstra
module Ball = Cr_graph.Ball
module Apsp = Cr_graph.Apsp
module Component = Cr_graph.Component
module Generators = Cr_graph.Generators
module Gio = Cr_graph.Gio

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* A small fixed graph used in several tests:
     0 --1.0-- 1 --1.0-- 2
     |                   |
     +-------5.0---------+        plus pendant 3 hanging off 2 (2.0) *)
let fixture () =
  Graph.create ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0); (2, 3, 2.0) ]

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basic () =
  let g = fixture () in
  checki "n" 4 (Graph.n g);
  checki "m" 4 (Graph.m g);
  checki "deg 0" 2 (Graph.degree g 0);
  checki "deg 2" 3 (Graph.degree g 2);
  checki "max degree" 3 (Graph.max_degree g)

let test_graph_edges () =
  let g = fixture () in
  checkb "has 0-1" true (Graph.has_edge g 0 1);
  checkb "has 1-0" true (Graph.has_edge g 1 0);
  checkb "no 0-3" false (Graph.has_edge g 0 3);
  checkf "w(0,2)" 5.0 (Option.get (Graph.edge_weight g 0 2));
  checkb "missing weight" true (Graph.edge_weight g 1 3 = None);
  checki "edge list" 4 (List.length (Graph.edges g))

let test_graph_ports () =
  let g = fixture () in
  (* adjacency sorted by neighbor: node 2 has neighbors 0,1,3 *)
  checki "port 2->0" 0 (Option.get (Graph.port g 2 0));
  checki "port 2->1" 1 (Option.get (Graph.port g 2 1));
  checki "port 2->3" 2 (Option.get (Graph.port g 2 3));
  let v, w = Graph.via_port g 2 2 in
  checki "via port node" 3 v;
  checkf "via port weight" 2.0 w;
  checkb "bad port raises" true
    (try
       ignore (Graph.via_port g 2 9);
       false
     with Invalid_argument _ -> true)

let test_graph_parallel_edges_merged () =
  let g = Graph.create ~n:2 [ (0, 1, 3.0); (1, 0, 1.0); (0, 1, 2.0) ] in
  checki "merged" 1 (Graph.m g);
  checkf "min weight kept" 1.0 (Option.get (Graph.edge_weight g 0 1))

let test_graph_invalid_inputs () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  checkb "self loop" true (raises (fun () -> ignore (Graph.create ~n:2 [ (0, 0, 1.0) ])));
  checkb "zero weight" true (raises (fun () -> ignore (Graph.create ~n:2 [ (0, 1, 0.0) ])));
  checkb "negative weight" true (raises (fun () -> ignore (Graph.create ~n:2 [ (0, 1, -1.0) ])));
  checkb "out of range" true (raises (fun () -> ignore (Graph.create ~n:2 [ (0, 5, 1.0) ])))

let test_graph_names () =
  let g = Graph.create ~names:[| 100; 200; 300 |] ~n:3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  checki "name of 1" 200 (Graph.name_of g 1)

let test_graph_relabel () =
  let rng = Rng.create 7 in
  let g = fixture () in
  let g' = Graph.relabel rng g in
  let names = Array.init 4 (Graph.name_of g') in
  let tbl = Hashtbl.create 4 in
  Array.iter (fun nm -> Hashtbl.replace tbl nm ()) names;
  checki "names distinct" 4 (Hashtbl.length tbl);
  checki "topology unchanged" 4 (Graph.m g')

let test_graph_normalize () =
  let g = Graph.create ~n:3 [ (0, 1, 2.0); (1, 2, 6.0) ] in
  let g' = Graph.normalize g in
  checkf "min is 1" 1.0 (Graph.min_weight g');
  checkf "ratio preserved" 3.0 (Graph.max_weight g')

let test_graph_reweight_once_per_edge () =
  let g = fixture () in
  let calls = ref 0 in
  let g' = Graph.reweight g (fun _ _ w -> incr calls; w *. 2.0) in
  checki "called once per edge" (Graph.m g) !calls;
  checkf "weight doubled" 2.0 (Option.get (Graph.edge_weight g' 0 1));
  (* symmetric view *)
  checkf "symmetric" 2.0 (Option.get (Graph.edge_weight g' 1 0))

let test_graph_hash_structural () =
  let g1 = Graph.create ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ] in
  let g2 = Graph.create ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ] in
  checki "equal structure, equal hash" (Graph.hash g1) (Graph.hash g2);
  (* the regression this pins: the hash used to fold only (n, m), so
     every same-size graph collided — weight and topology changes were
     invisible to anything keyed on the hash *)
  let g3 = Graph.create ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 5.0) ] in
  checkb "same (n, m), changed weight: hash differs" true (Graph.hash g1 <> Graph.hash g3);
  let g4 = Graph.create ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (1, 3, 1.0) ] in
  checkb "same (n, m), changed topology: hash differs" true (Graph.hash g1 <> Graph.hash g4);
  (* mutating one weight through reweight changes the hash too *)
  let g5 = Graph.reweight g1 (fun u v w -> if u = 0 && v = 1 then w +. 1.0 else w) in
  checkb "reweight changes the hash" true (Graph.hash g1 <> Graph.hash g5);
  checkb "hash is non-negative" true (Graph.hash g1 >= 0)

let test_graph_induced () =
  let g = fixture () in
  let sub, map = Graph.induced g [| 0; 1; 2 |] in
  checki "sub n" 3 (Graph.n sub);
  checki "sub m" 3 (Graph.m sub);
  Alcotest.(check (array int)) "map" [| 0; 1; 2 |] map;
  let sub2, _ = Graph.induced g [| 1; 3 |] in
  checki "disconnected induced" 0 (Graph.m sub2)

(* ------------------------------------------------------------------ *)
(* Heap *)

(* The heap reads each element's priority from the array it was
   created over; a caller lowers a key there, then calls
   [insert_or_decrease]. *)
let test_heap_order () =
  let keys = Array.make 10 infinity in
  let h = Heap.create keys in
  List.iter
    (fun (x, p) ->
      keys.(x) <- p;
      Heap.insert h x)
    [ (3, 5.0); (1, 2.0); (7, 8.0); (4, 1.0) ];
  checki "size" 4 (Heap.size h);
  let x1 = Heap.pop_min h in
  checki "first elt" 4 x1;
  checkf "first prio" 1.0 keys.(x1);
  checki "second" 1 (Heap.pop_min h);
  checki "third" 3 (Heap.pop_min h);
  checki "fourth" 7 (Heap.pop_min h);
  checkb "empty" true (Heap.is_empty h)

let test_heap_decrease () =
  let keys = [| 10.0; 20.0; 15.0; infinity; infinity |] in
  let h = Heap.create keys in
  List.iter (Heap.insert h) [ 0; 1; 2 ];
  keys.(1) <- 5.0;
  Heap.insert_or_decrease h 1;
  let x = Heap.pop_min h in
  checki "decreased wins" 1 x;
  checkf "new prio" 5.0 keys.(x);
  (* a key lowered to a tie with a smaller element pops after it *)
  keys.(2) <- 10.0;
  Heap.insert_or_decrease h 2;
  checki "tie breaks by index" 0 (Heap.pop_min h);
  checki "then the tied larger index" 2 (Heap.pop_min h)

let test_heap_insert_or_decrease () =
  let keys = Array.make 5 infinity in
  let h = Heap.create keys in
  keys.(2) <- 9.0;
  Heap.insert_or_decrease h 2;
  checki "inserted when absent" 1 (Heap.size h);
  keys.(3) <- 6.0;
  Heap.insert_or_decrease h 3;
  keys.(2) <- 4.0;
  Heap.insert_or_decrease h 2;
  checki "present: no second copy" 2 (Heap.size h);
  checki "lowered key pops first" 2 (Heap.pop_min h);
  checki "then the other" 3 (Heap.pop_min h);
  checkb "empty" true (Heap.is_empty h)

let test_heap_errors () =
  let keys = [| 1.0; 1.0; 1.0 |] in
  let h = Heap.create keys in
  checkb "pop empty" true (try ignore (Heap.pop_min h); false with Not_found -> true);
  Heap.insert h 1;
  checkb "double insert" true (try Heap.insert h 1; false with Invalid_argument _ -> true);
  checkb "out of range" true (try Heap.insert h 3; false with Invalid_argument _ -> true);
  checkb "negative" true
    (try Heap.insert_or_decrease h (-1); false with Invalid_argument _ -> true)

let test_heap_random_sorts () =
  let rng = Rng.create 17 in
  let n = 200 in
  let prios = Array.init n (fun _ -> Rng.float rng 100.0) in
  let h = Heap.create prios in
  for i = 0 to n - 1 do
    Heap.insert h i
  done;
  let last = ref neg_infinity in
  for _ = 1 to n do
    let p = prios.(Heap.pop_min h) in
    checkb "nondecreasing" true (p >= !last);
    last := p
  done

(* ------------------------------------------------------------------ *)
(* Unionfind *)

let test_unionfind () =
  let uf = Unionfind.create 6 in
  checki "initial count" 6 (Unionfind.count uf);
  checkb "union new" true (Unionfind.union uf 0 1);
  checkb "union again" false (Unionfind.union uf 1 0);
  ignore (Unionfind.union uf 2 3);
  ignore (Unionfind.union uf 0 3);
  checkb "transitive" true (Unionfind.same uf 1 2);
  checkb "separate" false (Unionfind.same uf 1 5);
  checki "count" 3 (Unionfind.count uf)

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_dijkstra_fixture () =
  let g = fixture () in
  let res = Dijkstra.run g 0 in
  checkf "d(0,0)" 0.0 res.Dijkstra.dist.(0);
  checkf "d(0,1)" 1.0 res.Dijkstra.dist.(1);
  checkf "d(0,2)" 2.0 res.Dijkstra.dist.(2) (* via 1, not the 5.0 edge *);
  checkf "d(0,3)" 4.0 res.Dijkstra.dist.(3);
  Alcotest.(check (list int)) "path 0->3" [ 0; 1; 2; 3 ] (Dijkstra.path_to res 3)

let test_dijkstra_parent_ports () =
  let g = fixture () in
  let res = Dijkstra.run g 0 in
  checki "parent of 3" 2 res.Dijkstra.parent.(3)

let test_dijkstra_unreachable () =
  let g = Graph.create ~n:3 [ (0, 1, 1.0) ] in
  let res = Dijkstra.run g 0 in
  checkb "unreachable inf" true (res.Dijkstra.dist.(2) = infinity);
  checkb "path raises" true (try ignore (Dijkstra.path_to res 2); false with Not_found -> true)

let test_dijkstra_bounded () =
  let g = fixture () in
  let res = Dijkstra.run_bounded g 0 1.5 in
  checkf "near node kept" 1.0 res.Dijkstra.dist.(1);
  checkb "far node dropped" true (res.Dijkstra.dist.(3) = infinity)

let test_dijkstra_restricted () =
  let g = fixture () in
  (* forbid node 1: now 0->2 must use the 5.0 edge *)
  let res = Dijkstra.run_restricted g ~allowed:(fun v -> v <> 1) 0 in
  checkf "detour" 5.0 res.Dijkstra.dist.(2);
  (* max_edge below 5 disconnects *)
  let res2 = Dijkstra.run_restricted g ~allowed:(fun v -> v <> 1) ~max_edge:4.0 0 in
  checkb "edge filter" true (res2.Dijkstra.dist.(2) = infinity)

let test_dijkstra_vs_bellman_ford () =
  let rng = Rng.create 23 in
  for trial = 0 to 9 do
    let g = Generators.erdos_renyi rng ~n:60 ~avg_degree:4.0 in
    let s = trial mod Graph.n g in
    let d1 = (Dijkstra.run g s).Dijkstra.dist in
    let d2 = Dijkstra.bellman_ford g s in
    Array.iteri
      (fun v dv ->
        checkb (Printf.sprintf "trial %d node %d" trial v) true (Float.abs (dv -. d2.(v)) < 1e-6))
      d1
  done

let test_dijkstra_eccentricity () =
  let g = fixture () in
  checkf "ecc" 4.0 (Dijkstra.eccentricity (Dijkstra.run g 0))

(* ------------------------------------------------------------------ *)
(* Ball *)

let test_ball_basic () =
  let g = fixture () in
  let b = Ball.of_dijkstra (Dijkstra.run g 0) in
  checki "source" 0 (Ball.source b);
  checki "reachable" 4 (Ball.reachable b);
  checki "|B(0,0)|" 1 (Ball.ball_size b 0.0);
  checki "|B(0,1)|" 2 (Ball.ball_size b 1.0);
  checki "|B(0,2)|" 3 (Ball.ball_size b 2.0);
  checki "|B(0,100)|" 4 (Ball.ball_size b 100.0);
  Alcotest.(check (array int)) "ball members" [| 0; 1; 2 |] (Ball.ball b 2.0)

let test_ball_kth_and_closest () =
  let g = fixture () in
  let b = Ball.of_dijkstra (Dijkstra.run g 0) in
  checkf "1st dist" 0.0 (Ball.kth_distance b 1);
  checkf "3rd dist" 2.0 (Ball.kth_distance b 3);
  Alcotest.(check (array int)) "closest 2" [| 0; 1 |] (Ball.closest b 2);
  Alcotest.(check (array int)) "closest overflow" [| 0; 1; 2; 3 |] (Ball.closest b 99)

let test_ball_closest_in () =
  let g = fixture () in
  let b = Ball.of_dijkstra (Dijkstra.run g 0) in
  Alcotest.(check (array int)) "even nodes" [| 0; 2 |] (Ball.closest_in b 2 (fun v -> v mod 2 = 0));
  Alcotest.(check (array int)) "limited" [| 1 |] (Ball.closest_in b 1 (fun v -> v mod 2 = 1))

let test_ball_excludes_unreachable () =
  let g = Graph.create ~n:3 [ (0, 1, 1.0) ] in
  let b = Ball.of_dijkstra (Dijkstra.run g 0) in
  checki "reachable only" 2 (Ball.reachable b);
  checki "infinite ball excludes disconnected" 2 (Ball.ball_size b infinity)

let test_ball_tie_break () =
  (* nodes 1 and 2 both at distance 1: index order breaks the tie *)
  let g = Graph.create ~n:3 [ (0, 1, 1.0); (0, 2, 1.0) ] in
  let b = Ball.of_dijkstra (Dijkstra.run g 0) in
  Alcotest.(check (array int)) "lexicographic" [| 0; 1; 2 |] (Ball.closest b 3)

(* ------------------------------------------------------------------ *)
(* Apsp *)

let sssp_equal (a : Dijkstra.result) (b : Dijkstra.result) =
  a.Dijkstra.dist = b.Dijkstra.dist
  && a.Dijkstra.parent = b.Dijkstra.parent
  && a.Dijkstra.order = b.Dijkstra.order

let test_apsp_matches_dijkstra () =
  let rng = Rng.create 29 in
  let g = Generators.erdos_renyi rng ~n:40 ~avg_degree:3.0 in
  let apsp = Apsp.compute g in
  for u = 0 to Graph.n g - 1 do
    let d = (Dijkstra.run g u).Dijkstra.dist in
    for v = 0 to Graph.n g - 1 do
      checkb "match" true (Float.abs (Apsp.distance apsp u v -. d.(v)) < 1e-9)
    done
  done

let test_apsp_symmetry_and_triangle () =
  let rng = Rng.create 31 in
  let g = Generators.random_geometric rng ~n:50 ~radius:0.3 in
  let apsp = Apsp.compute g in
  let n = Graph.n g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      checkb "symmetric" true
        (Float.abs (Apsp.distance apsp u v -. Apsp.distance apsp v u) < 1e-6)
    done
  done;
  (* triangle inequality on a sample *)
  for u = 0 to min 9 (n - 1) do
    for v = 0 to min 9 (n - 1) do
      for w = 0 to min 9 (n - 1) do
        checkb "triangle" true
          (Apsp.distance apsp u v <= Apsp.distance apsp u w +. Apsp.distance apsp w v +. 1e-6)
      done
    done
  done

let test_apsp_metrics () =
  let g = fixture () in
  let apsp = Apsp.compute g in
  checkb "connected" true (Apsp.connected apsp);
  checkf "diameter" 4.0 (Apsp.diameter apsp);
  checkf "aspect" 4.0 (Apsp.aspect_ratio apsp)

let test_apsp_disconnected () =
  let g = Graph.create ~n:3 [ (0, 1, 1.0) ] in
  let apsp = Apsp.compute g in
  checkb "not connected" false (Apsp.connected apsp);
  checkb "inf distance" true (Apsp.distance apsp 0 2 = infinity)

let test_apsp_parallel_matches_sequential () =
  let rng = Rng.create 101 in
  let g = Generators.erdos_renyi rng ~n:150 ~avg_degree:4.0 in
  let seq = Apsp.compute g in
  let par = Apsp.compute_parallel ~domains:4 g in
  for u = 0 to 149 do
    for v = 0 to 149 do
      checkb "identical distances" true
        (Float.abs (Apsp.distance seq u v -. Apsp.distance par u v) < 1e-12)
    done
  done

let test_apsp_parallel_single_domain_fallback () =
  let rng = Rng.create 103 in
  let g = Generators.grid ~rows:5 ~cols:5 in
  ignore rng;
  let par = Apsp.compute_parallel ~domains:1 g in
  checkb "connected" true (Apsp.connected par)

(* Incremental repair on er:64, around a child [c] of node 0 in T(0):
   the edge (0, c) is one of source 0's parent edges. *)
let repair_fixture () =
  let g = Generators.erdos_renyi (Rng.create 64) ~n:64 ~avg_degree:4.0 in
  let apsp = Apsp.compute g in
  let parent = (Apsp.sssp apsp 0).Dijkstra.parent in
  let rec child c = if parent.(c) = 0 then c else child (c + 1) in
  (apsp, child 1)

(* A result names parent nodes, not ports, so a clean source's result
   is shared as it is, even where the mutation shifts port numbers. *)
let test_apsp_repair_shares_clean_sources () =
  let apsp, c = repair_fixture () in
  let w = Option.get (Graph.edge_weight (Apsp.graph apsp) 0 c) in
  let shares apsp mu =
    let what = Graph.mutation_to_string mu in
    let dirty = Apsp.dirty_sources apsp mu in
    let apsp', _ = Apsp.repair_mutation apsp mu in
    let clean = ref 0 in
    Array.iteri
      (fun s d ->
        if not d then begin
          incr clean;
          checkb (Printf.sprintf "%s: source %d shared" what s) true
            (Apsp.sssp apsp' s == Apsp.sssp apsp s)
        end)
      dirty;
    checkb (what ^ " leaves clean sources") true (!clean > 0);
    apsp'
  in
  let apsp = shares apsp (Graph.Link_down (0, c)) in
  ignore (shares apsp (Graph.Link_up (0, c, w)))

let test_apsp_repair_rejects_lost_parent_edge () =
  let apsp, c = repair_fixture () in
  let all_clean = Array.make (Graph.n (Apsp.graph apsp)) false in
  let rejects mu =
    match Apsp.repair apsp mu ~dirty:all_clean with
    | _ -> false
    | exception Invalid_argument msg -> msg = "Apsp.repair: clean source lost a parent edge"
  in
  checkb "linkdown of a tree edge" true (rejects (Graph.Link_down (0, c)));
  checkb "nodedown of a tree child" true (rejects (Graph.Node_down c))

(* Runs reuse per-domain work arrays, and each source keeps fresh copies
   of its own: no two sources of an APSP share a [dist] or [parent]
   array, and each equals a fresh run. *)
let test_apsp_results_own_arrays () =
  let owns what apsp =
    let g = Apsp.graph apsp in
    let n = Graph.n g in
    for s = 0 to n - 1 do
      let r = Apsp.sssp apsp s in
      if not (sssp_equal r (Dijkstra.run g s)) then Alcotest.failf "%s: source %d differs" what s;
      for s' = s + 1 to n - 1 do
        let r' = Apsp.sssp apsp s' in
        if r.Dijkstra.dist == r'.Dijkstra.dist || r.Dijkstra.parent == r'.Dijkstra.parent then
          Alcotest.failf "%s: sources %d and %d share an array" what s s'
      done
    done
  in
  let apsp, c = repair_fixture () in
  let g = Apsp.graph apsp in
  owns "compute" apsp;
  owns "compute_parallel width 1" (Apsp.compute_parallel ~domains:1 g);
  owns "compute_parallel width 2" (Apsp.compute_parallel ~domains:2 g);
  let repaired, recomputed = Apsp.repair_mutation apsp (Graph.Link_down (0, c)) in
  checkb "repair recomputed some sources" true (recomputed > 0);
  owns "repair_mutation" repaired

(* The heap reads its keys from the search's [dist], so no relaxation
   passes a float to another module, which would box it (about 2 M
   minor words on this graph): an APSP on pl:1024 allocates its result
   arrays and little else. *)
let test_apsp_minor_words () =
  let rng = Rng.create 1 in
  let g = Graph.normalize (Graph.relabel rng (Generators.power_law rng ~n:1024 ~exponent:2.5)) in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Apsp.compute g));
  let words = Gc.minor_words () -. w0 in
  if words >= 100_000.0 then Alcotest.failf "Apsp.compute allocated %.0f minor words" words

(* ------------------------------------------------------------------ *)
(* Component *)

let test_components () =
  let g = Graph.create ~n:5 [ (0, 1, 1.0); (3, 4, 1.0) ] in
  let comp = Component.components g in
  checki "count" 3 (Component.count g);
  checkb "same comp" true (comp.(0) = comp.(1));
  checkb "diff comp" true (comp.(0) <> comp.(3));
  checkb "connected check" false (Component.is_connected g);
  Alcotest.(check (array int)) "largest" [| 0; 1 |] (Component.largest g)

let test_components_connected () =
  let g = fixture () in
  checkb "connected" true (Component.is_connected g);
  checki "one" 1 (Component.count g)

(* ------------------------------------------------------------------ *)
(* Generators *)

let connected_positive name g =
  checkb (name ^ " connected") true (Component.is_connected g);
  checkb (name ^ " positive weights") true (Graph.min_weight g > 0.0)

let test_gen_erdos_renyi () =
  let rng = Rng.create 41 in
  let g = Generators.erdos_renyi rng ~n:100 ~avg_degree:5.0 in
  checki "n" 100 (Graph.n g);
  connected_positive "er" g;
  (* average degree in the right ballpark *)
  let avg = 2.0 *. float_of_int (Graph.m g) /. 100.0 in
  checkb "avg degree sane" true (avg > 2.0 && avg < 10.0)

let test_gen_geometric () =
  let rng = Rng.create 43 in
  let g = Generators.random_geometric rng ~n:80 ~radius:0.25 in
  checki "n" 80 (Graph.n g);
  connected_positive "geo" g;
  checkf "normalized" 1.0 (Graph.min_weight g)

let test_gen_grid_torus () =
  let g = Generators.grid ~rows:4 ~cols:5 in
  checki "grid n" 20 (Graph.n g);
  checki "grid m" 31 (Graph.m g) (* 4*4 + 3*5 = 31 *);
  connected_positive "grid" g;
  let t = Generators.torus ~rows:4 ~cols:5 in
  checki "torus m" 40 (Graph.m t) (* 2*rows*cols *);
  connected_positive "torus" t

let test_gen_ring_chords () =
  let rng = Rng.create 47 in
  let g = Generators.ring_with_chords rng ~n:50 ~chords:10 in
  checki "n" 50 (Graph.n g);
  connected_positive "ring" g;
  checkb "chords added" true (Graph.m g > 50)

let test_gen_tree () =
  let rng = Rng.create 53 in
  let g = Generators.random_tree rng ~n:64 in
  checki "tree edges" 63 (Graph.m g);
  connected_positive "tree" g

let test_gen_preferential () =
  let rng = Rng.create 59 in
  let g = Generators.preferential_attachment rng ~n:100 ~edges_per_node:2 in
  checki "n" 100 (Graph.n g);
  connected_positive "pa" g

let test_gen_power_law () =
  let g = Generators.power_law (Rng.create 71) ~n:200 ~exponent:2.5 in
  checki "n" 200 (Graph.n g);
  connected_positive "power-law" g;
  (* the configuration model with gamma ~ 2.5 stays sparse: m = O(n) *)
  checkb "sparse" true (Graph.m g < 4 * Graph.n g);
  (* deterministic per seed, and the seed matters *)
  let g2 = Generators.power_law (Rng.create 71) ~n:200 ~exponent:2.5 in
  checkb "deterministic" true (Graph.edges g = Graph.edges g2);
  let g3 = Generators.power_law (Rng.create 72) ~n:200 ~exponent:2.5 in
  checkb "seed matters" true (Graph.edges g <> Graph.edges g3);
  Alcotest.check_raises "n too small" (Invalid_argument "power_law: n < 4") (fun () ->
      ignore (Generators.power_law (Rng.create 1) ~n:3 ~exponent:2.5));
  Alcotest.check_raises "exponent too small" (Invalid_argument "power_law: exponent <= 1")
    (fun () -> ignore (Generators.power_law (Rng.create 1) ~n:32 ~exponent:1.0))

let test_gen_power_law_exponent_shapes_density () =
  (* a steeper exponent pushes the degree distribution toward 1, so the
     realized edge count falls (deterministic: fixed seed) *)
  let flat = Generators.power_law (Rng.create 73) ~n:400 ~exponent:2.1 in
  let steep = Generators.power_law (Rng.create 73) ~n:400 ~exponent:3.5 in
  checkb "steeper exponent, fewer edges" true (Graph.m flat > Graph.m steep);
  (* the steep limit degenerates toward a near-1-regular pairing: m ~ n *)
  checkb "steep limit near m=n" true (Graph.m steep <= 440 && Graph.m steep >= 360)

let test_gen_isp () =
  let rng = Rng.create 61 in
  let g = Generators.two_tier_isp rng ~core:8 ~access_per_core:10 in
  checki "n" 88 (Graph.n g);
  connected_positive "isp" g

let test_gen_stretch_weights () =
  let rng = Rng.create 67 in
  let g = Generators.grid ~rows:6 ~cols:6 in
  let g' = Generators.stretch_weights rng g ~target_aspect:65536.0 in
  checki "same topology" (Graph.m g) (Graph.m g');
  connected_positive "stretched" g';
  let spread = Graph.max_weight g' /. Graph.min_weight g' in
  checkb "weight spread grew" true (spread > 100.0)

let test_gen_exponential_line () =
  let g = Generators.exponential_line ~n:40 ~base:2.0 in
  checki "edges" 39 (Graph.m g);
  connected_positive "expline" g;
  (* weight of edge i is 2^i *)
  checkf "edge 0" 1.0 (Option.get (Graph.edge_weight g 0 1));
  checkf "edge 10" 1024.0 (Option.get (Graph.edge_weight g 10 11));
  (* aspect grows with base *)
  let small = Generators.exponential_line ~n:40 ~base:1.2 in
  checkb "spread ordered" true
    (Graph.max_weight g /. Graph.min_weight g > Graph.max_weight small /. Graph.min_weight small);
  checkb "bad base rejected" true
    (try ignore (Generators.exponential_line ~n:10 ~base:1.0); false with Invalid_argument _ -> true)

let test_gen_dumbbell () =
  let g = Generators.dumbbell ~n_side:5 ~bridge_weight:1000.0 in
  checki "n" 10 (Graph.n g);
  connected_positive "dumbbell" g;
  let apsp = Apsp.compute g in
  checkb "huge aspect" true (Apsp.aspect_ratio apsp >= 1000.0)

(* ------------------------------------------------------------------ *)
(* Gio *)

let test_gio_roundtrip () =
  let rng = Rng.create 71 in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n:30 ~avg_degree:4.0) in
  let g' = Gio.of_string (Gio.to_string g) in
  checki "n" (Graph.n g) (Graph.n g');
  checki "m" (Graph.m g) (Graph.m g');
  Graph.iter_edges g (fun u v w ->
      checkf "weight preserved" w (Option.get (Graph.edge_weight g' u v)));
  for u = 0 to Graph.n g - 1 do
    checki "name preserved" (Graph.name_of g u) (Graph.name_of g' u)
  done

let test_gio_file_roundtrip () =
  let g = fixture () in
  let path = Filename.temp_file "crgraph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.save g path;
      let g' = Gio.load path in
      checki "m" (Graph.m g) (Graph.m g'))

let test_gio_bad_input () =
  let raises s = try ignore (Gio.of_string s); false with Gio.Parse_error _ -> true in
  checkb "no header" true (raises "edge 0 1 1.0\n");
  checkb "junk line" true (raises "graph 2 1\nfrobnicate\n")

let test_gio_parse_errors_carry_line_numbers () =
  let line_of s = try ignore (Gio.of_string s); -1 with Gio.Parse_error (l, _) -> l in
  (* malformed integer in the header *)
  checki "bad node count" 1 (line_of "graph two 1\nedge 0 1 1.0\n");
  (* malformed integer in an edge record *)
  checki "bad endpoint" 2 (line_of "graph 3 1\nedge 0 x 1.0\n");
  (* malformed float weight *)
  checki "bad weight" 2 (line_of "graph 3 1\nedge 0 1 heavy\n");
  (* out-of-range node index on a name line: used to crash with a bare
     Index out of bounds *)
  checki "name index out of range" 2 (line_of "graph 2 1\nname 7 42\nedge 0 1 1.0\n");
  checki "negative name index" 2 (line_of "graph 2 1\nname -1 42\nedge 0 1 1.0\n");
  (* out-of-range edge endpoint *)
  checki "edge endpoint out of range" 2 (line_of "graph 2 1\nedge 0 5 1.0\n");
  (* non-positive and non-finite weights *)
  checki "zero weight" 2 (line_of "graph 2 1\nedge 0 1 0.0\n");
  checki "negative weight" 2 (line_of "graph 2 1\nedge 0 1 -3.0\n");
  checki "nan weight" 2 (line_of "graph 2 1\nedge 0 1 nan\n");
  checki "infinite weight" 2 (line_of "graph 2 1\nedge 0 1 inf\n");
  checki "negative infinite weight" 2 (line_of "graph 2 1\nedge 0 1 -inf\n");
  checki "infinite weight after valid lines" 3
    (line_of "graph 3 2\nedge 0 1 1.0\nedge 1 2 infinity\n");
  (* self-loop *)
  checki "self-loop" 2 (line_of "graph 2 1\nedge 1 1 1.0\n");
  (* wrong field counts *)
  checki "short edge record" 2 (line_of "graph 2 1\nedge 0 1\n");
  checki "long name record" 2 (line_of "graph 2 1\nname 0 1 2\nedge 0 1 1.0\n");
  (* duplicate header; line 0 marks global errors *)
  checki "duplicate header" 2 (line_of "graph 2 1\ngraph 2 1\nedge 0 1 1.0\n");
  checki "missing header is global" 0 (line_of "edge 0 1 1.0\n");
  (* blank lines and comments do not shift the count *)
  checki "line numbers skip comments" 4 (line_of "# hi\n\ngraph 3 1\nedge 0 one 1.0\n")

let test_gio_parse_error_message_mentions_reason () =
  (match Gio.of_string "graph 2 1\nedge 0 1 heavy\n" with
  | exception Gio.Parse_error (2, msg) ->
      checkb "mentions token" true
        (let rec contains i =
           i + 5 <= String.length msg && (String.sub msg i 5 = "heavy" || contains (i + 1))
         in
         contains 0)
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Parse_error")

let test_gio_comments_and_blanks () =
  let g = Gio.of_string "# comment\n\ngraph 2 1\nedge 0 1 2.5\n" in
  checki "n" 2 (Graph.n g);
  checkf "w" 2.5 (Option.get (Graph.edge_weight g 0 1))

(* ------------------------------------------------------------------ *)
(* Graph mutations *)

let test_mutation_setw_preserves_ports () =
  let g = fixture () in
  let g' = Graph.apply g (Graph.Set_weight (0, 2, 9.0)) in
  checkf "reweighted" 9.0 (Option.get (Graph.edge_weight g' 0 2));
  checkf "input untouched" 5.0 (Option.get (Graph.edge_weight g 0 2));
  for v = 0 to 3 do
    Array.iteri
      (fun p (nb, _) -> checki "port stable" p (Option.get (Graph.port g' v nb)))
      (Graph.neighbors g v)
  done

let test_mutation_link_topology () =
  let g = fixture () in
  let g' = Graph.apply g (Graph.Link_down (0, 2)) in
  checkb "edge gone" false (Graph.has_edge g' 0 2);
  checki "m dropped" 3 (Graph.m g');
  let g'' = Graph.apply g' (Graph.Link_up (0, 3, 2.5)) in
  checkf "edge added" 2.5 (Option.get (Graph.edge_weight g'' 0 3));
  checki "m restored" 4 (Graph.m g'')

let test_mutation_node_down_up () =
  let g = fixture () in
  let g' = Graph.apply g (Graph.Node_down 2) in
  checki "incident edges removed" 1 (Graph.m g') (* only 0-1 survives *);
  checki "degree zero" 0 (Graph.degree g' 2);
  checki "n unchanged" 4 (Graph.n g');
  (* recovery is structurally a no-op: links come back via linkup *)
  let g'' = Graph.apply g' (Graph.Node_up 2) in
  checki "nodeup no-op" (Graph.m g') (Graph.m g'')

let test_mutation_validation () =
  let g = fixture () in
  let raises mu = try ignore (Graph.apply g mu); false with Invalid_argument _ -> true in
  checkb "setw missing edge" true (raises (Graph.Set_weight (0, 3, 1.0)));
  checkb "setw bad weight" true (raises (Graph.Set_weight (0, 1, 0.0)));
  checkb "linkdown missing edge" true (raises (Graph.Link_down (0, 3)));
  checkb "linkup existing edge" true (raises (Graph.Link_up (0, 1, 1.0)));
  checkb "linkup self loop" true (raises (Graph.Link_up (1, 1, 1.0)));
  checkb "node out of range" true (raises (Graph.Node_down 9));
  checkb "negative node" true (raises (Graph.Node_up (-1)))

(* one-line mutation records: the grammar the daemon protocol and the
   journal share *)

let test_mutation_log_roundtrip () =
  List.iter
    (fun mu ->
      let line = Graph.mutation_to_string mu in
      checkb line true (Gio.mutation_of_string line = mu))
    [
      Graph.Set_weight (0, 1, 2.5);
      Graph.Link_down (1, 2);
      Graph.Link_up (0, 3, 1.0 +. (1.0 /. 3.0));
      Graph.Node_down 2;
      Graph.Node_up 2;
    ]

let test_mutation_log_parse_errors_carry_line_numbers () =
  let line_of ~lineno s =
    try ignore (Gio.mutation_of_string ~lineno s); -1 with Gio.Parse_error (l, _) -> l
  in
  checki "unknown keyword" 1 (line_of ~lineno:1 "frobnicate 0 1");
  checki "short setw" 3 (line_of ~lineno:3 "setw 0 1");
  checki "long linkdown" 4 (line_of ~lineno:4 "linkdown 0 1 2");
  checki "bad endpoint" 2 (line_of ~lineno:2 "linkup 0 x 1.0");
  checki "bad weight" 5 (line_of ~lineno:5 "setw 0 1 heavy");
  checki "non-finite weight" 6 (line_of ~lineno:6 "linkup 0 1 inf");
  checki "negative weight" 7 (line_of ~lineno:7 "setw 0 1 -2.0");
  checki "empty record" 8 (line_of ~lineno:8 "   ");
  checki "well-formed" (-1) (line_of ~lineno:9 "  setw 0 1 2.0  ")

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let graph_gen =
  (* random connected graph via generator, varied seed/size *)
  QCheck.Gen.(
    map2
      (fun seed n ->
        let rng = Rng.create seed in
        Generators.erdos_renyi rng ~n:(n + 5) ~avg_degree:3.0)
      (int_range 0 1000) (int_range 5 60))

let arb_graph = QCheck.make ~print:(fun g -> Printf.sprintf "<graph n=%d m=%d>" (Graph.n g) (Graph.m g)) graph_gen

(* an applicable random mutation for the current graph, weights kept
   integral so journal round-trips are trivially exact to compare *)
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

let random_script seed =
  let rng = Rng.create seed in
  let n = 12 + Rng.int rng 28 in
  let g0 = Generators.erdos_renyi rng ~n ~avg_degree:3.5 in
  let g0 = Graph.reweight g0 (fun _ _ _ -> 1.0 +. float_of_int (Rng.int rng 7)) in
  let steps = 1 + Rng.int rng 6 in
  let rec go g acc k =
    if k = 0 then (g0, List.rev acc)
    else
      let mu = random_mutation rng g in
      go (Graph.apply g mu) (mu :: acc) (k - 1)
  in
  go g0 [] steps

let arb_script =
  QCheck.make
    ~print:(fun (_, mus) -> String.concat "; " (List.map Graph.mutation_to_string mus))
    QCheck.Gen.(map random_script (int_range 0 100000))

(* Every Ball query against a brute-force (distance, index) sort of
   Dijkstra's distances, from every source.  The ball index takes its
   order from Dijkstra's settle order, which differs from sorted order
   where rounding makes a relaxation of zero length: the expline graph
   and the pl graph stretched to aspect 2^60 are such cases. *)
let ball_matches_brute_force g =
  let ok = ref true in
  let expect _query a b = if a <> b then ok := false in
  for s = 0 to Graph.n g - 1 do
    let res = Dijkstra.run g s in
    let b = Ball.of_dijkstra res in
    let d = res.Dijkstra.dist in
    let sorted =
      List.init (Graph.n g) Fun.id
      |> List.filter (fun v -> d.(v) < infinity)
      |> List.map (fun v -> (d.(v), v))
      |> List.sort compare |> List.map snd |> Array.of_list
    in
    let len = Array.length sorted in
    expect "reachable" (Ball.reachable b) len;
    for m = 1 to len do
      expect "kth_distance" (Ball.kth_distance b m) d.(sorted.(m - 1))
    done;
    List.iter
      (fun m -> expect "closest" (Ball.closest b m) (Array.sub sorted 0 (min m len)))
      [ 0; 1; len / 2; len; len + 1 ];
    Array.iter
      (fun v ->
        let r = d.(v) in
        let within = Array.of_list (List.filter (fun x -> d.(x) <= r) (Array.to_list sorted)) in
        expect "ball_size" (Ball.ball_size b r) (Array.length within);
        expect "ball" (Ball.ball b r) within)
      sorted;
    List.iter
      (fun m ->
        let pred v = v mod 3 = s mod 3 in
        let within = List.filter pred (Array.to_list sorted) in
        expect "closest_in" (Ball.closest_in b m pred)
          (Array.of_list (List.filteri (fun i _ -> i < m) within)))
      [ 1; 5; len ]
  done;
  !ok

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"dijkstra agrees with bellman-ford" ~count:30 arb_graph (fun g ->
        let d1 = (Dijkstra.run g 0).Dijkstra.dist in
        let d2 = Dijkstra.bellman_ford g 0 in
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) d1 d2);
    Test.make ~name:"ball sizes monotone in radius" ~count:30 arb_graph (fun g ->
        let b = Ball.of_dijkstra (Dijkstra.run g 0) in
        let ok = ref true in
        for r = 0 to 20 do
          let r1 = float_of_int r /. 2.0 and r2 = float_of_int (r + 1) /. 2.0 in
          if Ball.ball_size b r1 > Ball.ball_size b r2 then ok := false
        done;
        !ok);
    Test.make ~name:"closest returns sorted distances" ~count:30 arb_graph (fun g ->
        let res = Dijkstra.run g 0 in
        let b = Ball.of_dijkstra res in
        let cl = Ball.closest b 10 in
        let ok = ref true in
        for i = 0 to Array.length cl - 2 do
          if res.Dijkstra.dist.(cl.(i)) > res.Dijkstra.dist.(cl.(i + 1)) then ok := false
        done;
        !ok);
    Test.make ~name:"tree path endpoints and adjacency" ~count:30 arb_graph (fun g ->
        let res = Dijkstra.run g 0 in
        let ok = ref true in
        for t = 0 to Graph.n g - 1 do
          if res.Dijkstra.dist.(t) < infinity then begin
            let p = Dijkstra.path_to res t in
            (match p with
            | [] -> ok := false
            | first :: _ -> if first <> 0 then ok := false);
            (match List.rev p with
            | last :: _ -> if last <> t then ok := false
            | [] -> ok := false);
            let rec adj = function
              | a :: (b :: _ as rest) ->
                  if not (Graph.has_edge g a b) then ok := false;
                  adj rest
              | _ -> ()
            in
            adj p
          end
        done;
        !ok);
    Test.make ~name:"mutation log roundtrips bit-identically" ~count:40 arb_script
      (fun (_, mus) ->
        (* the %.17g spelling round-trips any float weight exactly *)
        List.for_all (fun mu -> Gio.mutation_of_string (Graph.mutation_to_string mu) = mu) mus);
    Test.make ~name:"apply_all equals iterated apply" ~count:30 arb_script (fun (g0, mus) ->
        let a = Graph.apply_all g0 mus in
        let b = List.fold_left Graph.apply g0 mus in
        Graph.n a = Graph.n b && Graph.edges a = Graph.edges b);
    Test.make ~name:"incremental repair equals fresh compute" ~count:25 arb_script
      (fun (g0, mus) ->
        (* chain repair_mutation over the script; every single-source
           result (distances, parents, ports) must be bit-identical to
           an APSP computed from scratch on the final graph *)
        let apsp =
          List.fold_left (fun a mu -> fst (Apsp.repair_mutation a mu)) (Apsp.compute g0) mus
        in
        let fresh = Apsp.compute (Apsp.graph apsp) in
        let ok = ref true in
        for s = 0 to Graph.n g0 - 1 do
          if not (sssp_equal (Apsp.sssp apsp s) (Apsp.sssp fresh s)) then ok := false
        done;
        !ok);
    Test.make ~name:"repair on one and two lanes equals fresh compute" ~count:25
      arb_script (fun (g0, mus) ->
        (* one lane recomputes the dirty sources in the caller, two on a
           pool of their own: the daemon's width on two cores, and the
           default there *)
        let chained domains =
          List.fold_left
            (fun a mu -> fst (Apsp.repair_mutation ~domains a mu))
            (Apsp.compute g0) mus
        in
        let one = chained 1 and two = chained 2 in
        let fresh = Apsp.compute (Apsp.graph one) in
        let ok = ref true in
        for s = 0 to Graph.n g0 - 1 do
          if
            not
              (sssp_equal (Apsp.sssp one s) (Apsp.sssp fresh s)
              && sssp_equal (Apsp.sssp two s) (Apsp.sssp fresh s))
          then ok := false
        done;
        !ok);
    Test.make ~name:"ball queries equal a sorted brute force (er, geo)" ~count:20
      (pair (int_range 0 100000) (int_range 10 60))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let g =
          if seed mod 2 = 0 then Generators.erdos_renyi rng ~n ~avg_degree:3.0
          else Generators.random_geometric rng ~n ~radius:0.3
        in
        ball_matches_brute_force (Graph.normalize g));
    Test.make ~name:"ball queries equal a sorted brute force (expline, aspect 2^60)" ~count:1 unit
      (fun () ->
        let module E = Compact_routing.Experiment in
        ball_matches_brute_force (E.make_graph ~seed:1 (E.Exp_line { n = 64; base = 2.0 }))
        && ball_matches_brute_force
             (E.make_graph_with_aspect ~seed:1 ~target_aspect:(2.0 ** 60.0)
                (E.Power_law { n = 256; exponent = 2.5 })));
    Test.make ~name:"gio roundtrip preserves structure" ~count:20 arb_graph (fun g ->
        let g' = Gio.of_string (Gio.to_string g) in
        Graph.n g = Graph.n g' && Graph.m g = Graph.m g');
    Test.make ~name:"induced subgraph edges exist in parent" ~count:20 arb_graph (fun g ->
        let k = min 10 (Graph.n g) in
        let nodes = Array.init k (fun i -> i) in
        let sub, map = Graph.induced g nodes in
        let ok = ref true in
        Graph.iter_edges sub (fun u v w ->
            match Graph.edge_weight g map.(u) map.(v) with
            | Some w' when Float.abs (w -. w') < 1e-12 -> ()
            | _ -> ok := false);
        !ok);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "edges" `Quick test_graph_edges;
          Alcotest.test_case "ports" `Quick test_graph_ports;
          Alcotest.test_case "parallel merged" `Quick test_graph_parallel_edges_merged;
          Alcotest.test_case "invalid inputs" `Quick test_graph_invalid_inputs;
          Alcotest.test_case "names" `Quick test_graph_names;
          Alcotest.test_case "relabel" `Quick test_graph_relabel;
          Alcotest.test_case "normalize" `Quick test_graph_normalize;
          Alcotest.test_case "reweight once per edge" `Quick test_graph_reweight_once_per_edge;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          Alcotest.test_case "hash is structural" `Quick test_graph_hash_structural;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "decrease" `Quick test_heap_decrease;
          Alcotest.test_case "insert_or_decrease" `Quick test_heap_insert_or_decrease;
          Alcotest.test_case "errors" `Quick test_heap_errors;
          Alcotest.test_case "random sorts" `Quick test_heap_random_sorts;
        ] );
      ("unionfind", [ Alcotest.test_case "basic" `Quick test_unionfind ]);
      ( "dijkstra",
        [
          Alcotest.test_case "fixture distances" `Quick test_dijkstra_fixture;
          Alcotest.test_case "parent ports" `Quick test_dijkstra_parent_ports;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "bounded" `Quick test_dijkstra_bounded;
          Alcotest.test_case "restricted" `Quick test_dijkstra_restricted;
          Alcotest.test_case "vs bellman-ford" `Quick test_dijkstra_vs_bellman_ford;
          Alcotest.test_case "eccentricity" `Quick test_dijkstra_eccentricity;
        ] );
      ( "ball",
        [
          Alcotest.test_case "basic" `Quick test_ball_basic;
          Alcotest.test_case "kth and closest" `Quick test_ball_kth_and_closest;
          Alcotest.test_case "closest_in" `Quick test_ball_closest_in;
          Alcotest.test_case "excludes unreachable" `Quick test_ball_excludes_unreachable;
          Alcotest.test_case "tie break" `Quick test_ball_tie_break;
        ] );
      ( "apsp",
        [
          Alcotest.test_case "matches dijkstra" `Quick test_apsp_matches_dijkstra;
          Alcotest.test_case "symmetry and triangle" `Quick test_apsp_symmetry_and_triangle;
          Alcotest.test_case "metrics" `Quick test_apsp_metrics;
          Alcotest.test_case "disconnected" `Quick test_apsp_disconnected;
          Alcotest.test_case "parallel matches sequential" `Quick test_apsp_parallel_matches_sequential;
          Alcotest.test_case "parallel single-domain fallback" `Quick test_apsp_parallel_single_domain_fallback;
          Alcotest.test_case "repair shares clean sources" `Quick
            test_apsp_repair_shares_clean_sources;
          Alcotest.test_case "repair rejects a lost parent edge" `Quick
            test_apsp_repair_rejects_lost_parent_edge;
          Alcotest.test_case "results own their arrays" `Quick test_apsp_results_own_arrays;
          Alcotest.test_case "minor words" `Quick test_apsp_minor_words;
        ] );
      ( "component",
        [
          Alcotest.test_case "split" `Quick test_components;
          Alcotest.test_case "connected" `Quick test_components_connected;
        ] );
      ( "generators",
        [
          Alcotest.test_case "erdos_renyi" `Quick test_gen_erdos_renyi;
          Alcotest.test_case "geometric" `Quick test_gen_geometric;
          Alcotest.test_case "grid and torus" `Quick test_gen_grid_torus;
          Alcotest.test_case "ring chords" `Quick test_gen_ring_chords;
          Alcotest.test_case "tree" `Quick test_gen_tree;
          Alcotest.test_case "preferential" `Quick test_gen_preferential;
          Alcotest.test_case "power law" `Quick test_gen_power_law;
          Alcotest.test_case "power law exponent shapes density" `Quick
            test_gen_power_law_exponent_shapes_density;
          Alcotest.test_case "isp" `Quick test_gen_isp;
          Alcotest.test_case "stretch weights" `Quick test_gen_stretch_weights;
          Alcotest.test_case "exponential line" `Quick test_gen_exponential_line;
          Alcotest.test_case "dumbbell" `Quick test_gen_dumbbell;
        ] );
      ( "gio",
        [
          Alcotest.test_case "roundtrip" `Quick test_gio_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_gio_file_roundtrip;
          Alcotest.test_case "bad input" `Quick test_gio_bad_input;
          Alcotest.test_case "parse errors carry line numbers" `Quick
            test_gio_parse_errors_carry_line_numbers;
          Alcotest.test_case "parse error message" `Quick test_gio_parse_error_message_mentions_reason;
          Alcotest.test_case "comments" `Quick test_gio_comments_and_blanks;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "setw preserves ports" `Quick test_mutation_setw_preserves_ports;
          Alcotest.test_case "link topology" `Quick test_mutation_link_topology;
          Alcotest.test_case "node down and up" `Quick test_mutation_node_down_up;
          Alcotest.test_case "validation" `Quick test_mutation_validation;
          Alcotest.test_case "log roundtrip" `Quick test_mutation_log_roundtrip;
          Alcotest.test_case "log parse errors carry line numbers" `Quick
            test_mutation_log_parse_errors_carry_line_numbers;
        ] );
      ("properties", qsuite);
    ]
