(* Tests for the cr_tree library: tree extraction, heavy-path labeled
   routing (Lemma 5), name-independent error-reporting tree routing
   (Lemma 4), and the dense-cover tree routing (Lemma 7). *)

module Rng = Cr_util.Rng
module Graph = Cr_graph.Graph
module Dijkstra = Cr_graph.Dijkstra
module Generators = Cr_graph.Generators
module Tree = Cr_tree.Tree
module Tree_labels = Cr_tree.Tree_labels
module Ni = Cr_tree.Ni_tree_routing
module Dense = Cr_tree.Dense_tree_routing
module Directory = Cr_tree.Directory
module Bits = Cr_util.Bits
module Digit_hash = Cr_util.Digit_hash

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* path graph 0-1-2-3 plus a branch 1-4, unit-ish weights *)
let small_graph () =
  Graph.create ~n:5 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.0); (1, 4, 4.0) ]

let walk_cost g walk =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
        (match Graph.edge_weight g a b with
        | Some w -> go (acc +. w) rest
        | None -> Alcotest.failf "walk uses non-edge %d-%d" a b)
    | _ -> acc
  in
  go 0.0 walk

(* ------------------------------------------------------------------ *)
(* Tree *)

let test_tree_spanning () =
  let g = small_graph () in
  let t = Tree.spanning g 0 in
  checki "size" 5 (Tree.size t);
  checki "root" 0 (Tree.root t);
  checki "parent of 2" 1 (Tree.parent t 2);
  checki "parent of root" (-1) (Tree.parent t 0);
  Alcotest.(check (array int)) "children of 1" [| 2; 4 |] (Tree.children t 1);
  checkf "depth 3" 4.0 (Tree.depth t 3);
  checki "hop depth 3" 3 (Tree.hop_depth t 3);
  checkf "radius" 5.0 (Tree.radius t);
  checkf "max edge" 4.0 (Tree.max_edge t)

let test_tree_keep_with_relays () =
  let g = small_graph () in
  (* keep only node 3: nodes 1, 2 must be pulled in as relays *)
  let t = Tree.of_sssp g (Dijkstra.run g 0) ~members:[| 3 |] in
  checki "size" 4 (Tree.size t);
  checkb "3 member" true (Tree.is_member t 3);
  checkb "2 relay" false (Tree.is_member t 2);
  checkb "root member" true (Tree.is_member t 0);
  checkb "4 absent" false (Tree.mem t 4);
  Alcotest.(check (array int)) "members" [| 0; 3 |] (Tree.members t)

let test_tree_no_kept_raises () =
  let g = small_graph () in
  checkb "raises" true
    (try
       ignore (Tree.of_sssp g (Dijkstra.run g 0) ~members:[||]);
       false
     with Invalid_argument _ -> true)

let test_tree_lca_path () =
  let g = small_graph () in
  let t = Tree.spanning g 0 in
  checki "lca(3,4)" 1 (Tree.lca t 3 4);
  checki "lca(2,3)" 2 (Tree.lca t 2 3);
  checki "lca(x,x)" 3 (Tree.lca t 3 3);
  Alcotest.(check (list int)) "path 3->4" [ 3; 2; 1; 4 ] (Tree.path t 3 4);
  Alcotest.(check (list int)) "path 0->3" [ 0; 1; 2; 3 ] (Tree.path t 0 3);
  Alcotest.(check (list int)) "path self" [ 2 ] (Tree.path t 2 2);
  checkf "path length 3->4" 7.0 (Tree.path_length t 3 4)

let test_tree_dfs () =
  let g = small_graph () in
  let t = Tree.spanning g 0 in
  let order = Tree.dfs_order t in
  checki "first is root" 0 order.(0);
  checki "positions" 5 (Array.length order);
  (* subtree of 1 = {1,2,3,4} — contiguous dfs interval of width 4 *)
  let lo, hi = Tree.subtree_interval t 1 in
  checki "interval width" 4 (hi - lo);
  let lo3, hi3 = Tree.subtree_interval t 3 in
  checki "leaf interval" 1 (hi3 - lo3);
  checkb "leaf inside parent" true (lo3 >= lo && hi3 <= hi);
  Array.iteri (fun i v -> checki "dfs_index inverse" i (Tree.dfs_index t v)) order

(* Lemma 4 numbers a tree's nodes by (root distance, id): the positions
   that name them *)
let test_tree_by_root_distance () =
  let g = small_graph () in
  let res = Dijkstra.run g 0 in
  let ni = Ni.build ~k:3 ~n_global:5 g res ~members:res.Dijkstra.order in
  let order = Array.make 5 (-1) in
  Array.iter (fun v -> order.(Ni.position ni v) <- v) (Tree.nodes (Ni.tree ni));
  Alcotest.(check (array int)) "order" [| 0; 1; 2; 3; 4 |] order
  (* depths: 0,1,3,4,5 *)

let random_tree_of rng n =
  let g = Generators.random_tree rng ~n in
  Tree.spanning g 0

let test_tree_depth_consistency () =
  let rng = Rng.create 5 in
  let t = random_tree_of rng 200 in
  Array.iter
    (fun v ->
      if v <> Tree.root t then begin
        let p = Tree.parent t v in
        let w = Option.get (Graph.edge_weight (Tree.graph t) p v) in
        checkb "depth recurrence" true (Float.abs (Tree.depth t v -. (Tree.depth t p +. w)) < 1e-9)
      end)
    (Tree.nodes t)

(* ------------------------------------------------------------------ *)
(* Tree_labels *)

let check_labels_route_everything t =
  let tl = Tree_labels.build t in
  let nodes = Tree.nodes t in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          let r = Tree_labels.route tl a b in
          let expect = Tree.path t a b in
          Alcotest.(check (list int)) (Printf.sprintf "route %d->%d" a b) expect r)
        nodes)
    nodes

let test_labels_small () = check_labels_route_everything (Tree.spanning (small_graph ()) 0)

let test_labels_star () =
  let edges = List.init 20 (fun i -> (0, i + 1, 1.0 +. float_of_int i)) in
  let g = Graph.create ~n:21 edges in
  check_labels_route_everything (Tree.spanning g 0)

let test_labels_path_graph () =
  let edges = List.init 30 (fun i -> (i, i + 1, 1.0)) in
  let g = Graph.create ~n:31 edges in
  check_labels_route_everything (Tree.spanning g 0)

let test_labels_random_trees () =
  let rng = Rng.create 11 in
  for _ = 1 to 5 do
    let t = random_tree_of rng 60 in
    let tl = Tree_labels.build t in
    let nodes = Tree.nodes t in
    (* sample pairs *)
    for _ = 1 to 200 do
      let a = nodes.(Rng.int rng (Array.length nodes)) in
      let b = nodes.(Rng.int rng (Array.length nodes)) in
      let r = Tree_labels.route tl a b in
      Alcotest.(check (list int)) "matches tree path" (Tree.path t a b) r
    done
  done

let test_labels_bits_reasonable () =
  let rng = Rng.create 13 in
  let t = random_tree_of rng 500 in
  let tl = Tree_labels.build t in
  let lg = 9 (* ceil log2 500 *) in
  Array.iter
    (fun v ->
      let bits = Tree_labels.label_bits (Tree_labels.label tl v) in
      (* O(log^2 m) with a generous constant *)
      checkb "label bits polylog" true (bits <= 4 * lg * lg))
    (Tree.nodes t)

let test_labels_next_hop_none_at_dest () =
  let t = Tree.spanning (small_graph ()) 0 in
  let tl = Tree_labels.build t in
  checkb "self" true (Tree_labels.next_hop tl 3 (Tree_labels.label tl 3) = None);
  checkb "equal labels" true
    (Tree_labels.equal_label (Tree_labels.label tl 2) (Tree_labels.label tl 2))

(* ------------------------------------------------------------------ *)
(* Ni_tree_routing (Lemma 4) *)

(* Lemma 4 routing on the full shortest-path tree of [root] *)
let build_ni ?(k = 3) ?(seed = 1) g root =
  let res = Dijkstra.run g root in
  let ni = Ni.build ~seed ~k ~n_global:(Graph.n g) g res ~members:res.Dijkstra.order in
  (Ni.tree ni, ni)

let test_ni_finds_every_node () =
  let rng = Rng.create 17 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:100) in
  let t, ni = build_ni g 0 in
  Array.iter
    (fun v ->
      let ident = Graph.name_of g v in
      let r = Ni.search ni ~bound:3 ident in
      (match r.Ni.outcome with
      | Ni.Found u -> checki "found right node" v u
      | Ni.Not_found_reported -> Alcotest.failf "node %d not found" v);
      (* walk starts at root, is connected in g *)
      (match r.Ni.walk with
      | first :: _ -> checki "starts at root" (Tree.root t) first
      | [] -> Alcotest.fail "empty walk");
      ignore (walk_cost g r.Ni.walk))
    (Tree.nodes t)

let test_ni_stretch_bound () =
  (* Lemma 4(2a): node in N(r, n^{j/k}) found with stretch <= 2j-1;
     overall bound: stretch <= 2k-1 w.r.t. tree distance from root. *)
  let rng = Rng.create 19 in
  let k = 3 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:150) in
  let t, ni = build_ni ~k ~seed:2 g 0 in
  Array.iter
    (fun v ->
      if v <> Tree.root t then begin
        let ident = Graph.name_of g v in
        let r = Ni.search ni ~bound:k ident in
        let cost = walk_cost g r.Ni.walk in
        let dt = Tree.depth t v in
        let limit = float_of_int ((2 * k) - 1) *. dt in
        checkb
          (Printf.sprintf "stretch bound node %d: cost %.2f limit %.2f" v cost limit)
          true
          (cost <= limit +. 1e-6)
      end)
    (Tree.nodes t)

let test_ni_tighter_bound_per_name_level () =
  (* the refined claim: a node with name length l is found at cost
     <= (2l-1) * max depth of the visited name levels; we check the
     guaranteed_bound function is consistent: bound = name level suffices *)
  let rng = Rng.create 23 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:120) in
  let t, ni = build_ni ~k:4 ~seed:3 g 0 in
  Array.iter
    (fun v ->
      let j = max 1 (Ni.name_digits ni v) in
      let r = Ni.search ni ~bound:j (Graph.name_of g v) in
      match r.Ni.outcome with
      | Ni.Found u -> checki "found at its name level" v u
      | Ni.Not_found_reported -> Alcotest.failf "node %d missed at bound %d" v j)
    (Tree.nodes t)

let test_ni_negative_response_returns_to_root () =
  let rng = Rng.create 29 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:80) in
  let t, ni = build_ni g 0 in
  (* an identifier that is not any node's name *)
  let absent = 1 + Array.fold_left (fun acc v -> max acc (Graph.name_of g v)) 0 (Tree.nodes t) in
  let r = Ni.search ni ~bound:3 absent in
  checkb "not found" true (r.Ni.outcome = Ni.Not_found_reported);
  (match (r.Ni.walk, List.rev r.Ni.walk) with
  | first :: _, last :: _ ->
      checki "starts at root" (Tree.root t) first;
      checki "ends at root" (Tree.root t) last
  | _ -> Alcotest.fail "empty walk")

let test_ni_negative_cost_bound () =
  (* Lemma 4(2b): cost of a negative j-bounded answer
     <= (2j-2) * max{ d(r,v) : v in N(r, n^{(j-1)/k}) }  — we verify with
     the implementation's name levels: visited nodes all have < j digits. *)
  let rng = Rng.create 31 in
  let k = 3 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:100) in
  let t, ni = build_ni ~k ~seed:4 g 0 in
  let absent = 999_999_999 in
  for j = 1 to k do
    let r = Ni.search ni ~bound:j absent in
    if r.Ni.outcome = Ni.Not_found_reported then begin
      let max_depth_vj =
        Array.fold_left
          (fun acc v -> if Ni.name_digits ni v <= max 0 (j - 1) then max acc (Tree.depth t v) else acc)
          0.0 (Tree.nodes t)
      in
      let cost = walk_cost g r.Ni.walk in
      let limit = float_of_int (max 1 ((2 * j) - 2)) *. max_depth_vj in
      checkb
        (Printf.sprintf "negative cost j=%d: %.2f <= %.2f" j cost limit)
        true
        (cost <= limit +. 1e-6)
    end
  done

let test_ni_bounded_search_semantics () =
  (* with bound 1, only nodes the root knows directly can be found *)
  let rng = Rng.create 37 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:200) in
  let t, ni = build_ni ~k:3 ~seed:5 g 0 in
  let found_somewhere = ref 0 and missed = ref 0 in
  Array.iter
    (fun v ->
      let r = Ni.search ni ~bound:1 (Graph.name_of g v) in
      match r.Ni.outcome with
      | Ni.Found u -> checki "right node" v u; incr found_somewhere
      | Ni.Not_found_reported -> incr missed)
    (Tree.nodes t);
  checkb "bound-1 finds some (directory of root)" true (!found_somewhere > 0);
  checkb "bound-1 misses some (tree larger than root dir)" true (!missed > 0)

let test_ni_guaranteed_bound () =
  let rng = Rng.create 41 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:150) in
  let t, ni = build_ni ~k:4 ~seed:6 g 0 in
  let nodes = Tree.nodes t in
  let b = Ni.guaranteed_bound ni nodes in
  checkb "bound within k" true (b >= 1 && b <= 4);
  (* a search with that bound finds every node *)
  Array.iter
    (fun v ->
      let r = Ni.search ni ~bound:b (Graph.name_of g v) in
      checkb "found" true (match r.Ni.outcome with Ni.Found u -> u = v | _ -> false))
    nodes;
  (* absent node yields k *)
  checki "absent -> k" 4 (Ni.guaranteed_bound ni [| Graph.n g + 1 |])
  [@warning "-20"]

let test_ni_names_are_well_formed () =
  let rng = Rng.create 43 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:90) in
  let t, ni = build_ni ~k:3 ~seed:7 g 0 in
  let root = Tree.root t in
  checki "root has empty name" 0 (Array.length (Ni.name_of ni root));
  let sigma = Ni.sigma ni in
  let seen = Hashtbl.create 90 in
  Array.iter
    (fun v ->
      let nm = Ni.name_of ni v in
      checki "digits consistent" (Array.length nm) (Ni.name_digits ni v);
      Array.iter (fun d -> checkb "digit range" true (d >= 0 && d < sigma)) nm;
      let key = Array.to_list nm in
      checkb "names distinct" false (Hashtbl.mem seen key);
      Hashtbl.replace seen key ())
    (Tree.nodes t)

let test_ni_names_ordered_by_distance () =
  (* closer nodes get shorter (or equal-length) names *)
  let rng = Rng.create 47 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:120) in
  let t, ni = build_ni ~k:3 ~seed:8 g 0 in
  Array.iter
    (fun v ->
      Array.iter
        (fun u ->
          if Tree.depth t v < Tree.depth t u then
            checkb "shorter name for closer" true (Ni.name_digits ni v <= Ni.name_digits ni u))
        (Tree.nodes t))
    (Tree.nodes t)

let test_ni_storage_positive_and_bounded () =
  let rng = Rng.create 53 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:200) in
  let t, ni = build_ni ~k:3 ~seed:9 g 0 in
  let n = Graph.n g in
  let sigma = Ni.sigma ni in
  let lg = Cr_util.Bits.bits_for n in
  (* generous version of O(k n^{1/k} log^2 n) *)
  let per_node_limit = 64 * 3 * sigma * lg * lg in
  Array.iter
    (fun v ->
      let bits = Ni.node_storage_bits ni v in
      checkb "positive" true (bits > 0);
      checkb
        (Printf.sprintf "bounded: %d <= %d" bits per_node_limit)
        true (bits <= per_node_limit))
    (Tree.nodes t);
  checkb "total consistent" true (Ni.total_storage_bits ni > 0)

let test_ni_on_spt_of_general_graph () =
  (* Lemma 4 applies to any tree; use an SPT of a weighted graph and
     adversarial names *)
  let rng = Rng.create 59 in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n:150 ~avg_degree:4.0) in
  let t, ni = build_ni ~k:3 ~seed:10 g 3 in
  Array.iter
    (fun v ->
      let r = Ni.search ni ~bound:3 (Graph.name_of g v) in
      checkb "found" true (match r.Ni.outcome with Ni.Found u -> u = v | _ -> false))
    (Tree.nodes t)

let test_ni_k1 () =
  (* k = 1: one-digit names, directory-only routing *)
  let rng = Rng.create 61 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:30) in
  let t, ni = build_ni ~k:1 ~seed:11 g 0 in
  Array.iter
    (fun v ->
      let r = Ni.search ni ~bound:1 (Graph.name_of g v) in
      checkb "found with k=1" true (match r.Ni.outcome with Ni.Found u -> u = v | _ -> false))
    (Tree.nodes t)

let test_ni_prefix_load_witness () =
  let rng = Rng.create 67 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:100) in
  let _, ni = build_ni ~k:3 ~seed:12 g 0 in
  checkb "load bounded by capacity" true (Ni.max_prefix_load ni <= Ni.directory_capacity ni)

(* ------------------------------------------------------------------ *)
(* The accounting core: [Ni.add_storage_bits] against the Lemma 4 and 5
   bit formula, recomputed here from the materialized structure. *)

(* Lemma 5 labels as records: heavy child = the first child (ascending
   id) with the largest subtree; labels in preorder, a heavy child's
   advancing its parent's offset, a light child's appending the branch
   (parent's offset, its slot); label bits at self-describing widths,
   node storage (own label at per-tree widths plus parent and
   heavy-child pointers).  By tree index. *)
let reference_label_bits tree =
  let m = Tree.size tree and nodes = Tree.nodes tree in
  let idx = Tree.tree_index tree in
  let size v =
    let lo, hi = Tree.subtree_interval tree v in
    hi - lo
  in
  let heavy = Array.make m (-1) in
  Array.iteri
    (fun i v ->
      let best = ref 0 in
      Array.iter
        (fun c ->
          if size c > !best then begin
            best := size c;
            heavy.(i) <- idx c
          end)
        (Tree.children tree v))
    nodes;
  let branches = Array.make m [] and offset = Array.make m 0 in
  Array.iter
    (fun v ->
      let i = idx v in
      Array.iteri
        (fun slot c ->
          let ci = idx c in
          if heavy.(i) = ci then begin
            branches.(ci) <- branches.(i);
            offset.(ci) <- offset.(i) + 1
          end
          else begin
            branches.(ci) <- branches.(i) @ [ (offset.(i), slot) ];
            offset.(ci) <- 0
          end)
        (Tree.children tree v))
    (Tree.dfs_order tree);
  let field v = Bits.bits_for (max 2 (v + 1)) in
  let label =
    Array.init m (fun i ->
        List.fold_left
          (fun acc (o, c) -> acc + field o + field c)
          (Bits.bits_for (List.length branches.(i) + 2) + field offset.(i))
          branches.(i))
  in
  let offset_bits = Bits.bits_for (max m 2) in
  let slot_bits =
    Bits.bits_for (Array.fold_left (fun acc v -> max acc (Array.length (Tree.children tree v))) 1 nodes)
  in
  let pointers = 2 * Bits.id_bits ~n:(Graph.n (Tree.graph tree)) in
  let storage =
    Array.init m (fun i ->
        let b = List.length branches.(i) in
        Bits.bits_for (b + 2) + (b * (offset_bits + slot_bits)) + offset_bits + pointers)
  in
  (label, storage)

(* Lemma 4 bits of every node, by tree index: the hash function, its own
   routing info, its trie children (a presence bit per digit plus each
   child's label) and its directory entries (identifier plus label). *)
let reference_ni_bits ni =
  let tree = Ni.tree ni in
  let n = Graph.n (Tree.graph tree) and sigma = Ni.sigma ni in
  let label, storage = reference_label_bits tree in
  let by_name = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace by_name (Ni.name_of ni v) v) (Tree.nodes tree);
  let ident_bits = 2 * Bits.id_bits ~n and hash_bits = Digit_hash.storage_bits ~n in
  Array.mapi
    (fun i v ->
      let name = Ni.name_of ni v in
      let trie = ref sigma in
      for d = 0 to sigma - 1 do
        match Hashtbl.find_opt by_name (Array.append name [| d |]) with
        | Some c -> trie := !trie + label.(Tree.tree_index tree c)
        | None -> ()
      done;
      let dir =
        Directory.fold_targets (Ni.directory ni) (Ni.position ni v)
          (fun acc u -> acc + ident_bits + label.(u))
          0
      in
      hash_bits + storage.(i) + !trie + dir)
    (Tree.nodes tree)

(* Checks one tree T(root) over [members] and adds its reference bits
   to [expected]; false on the first disagreement. *)
let core_matches ?seed ~k ~n_global g res ~members expected =
  let n = Graph.n g in
  let ni = Ni.build ?seed ~k ~n_global g res ~members in
  let tree = Ni.tree ni in
  let want = reference_ni_bits ni in
  let got = Array.make n 0 in
  Ni.add_storage_bits ?seed ~k ~n_global g res ~members got;
  let label, storage = reference_label_bits tree in
  let tl = Tree_labels.build tree in
  (* positions: tree nodes by (root distance, id) *)
  let by_distance = Array.copy (Tree.nodes tree) in
  Array.stable_sort
    (fun a b ->
      match Float.compare (Tree.depth tree a) (Tree.depth tree b) with 0 -> Int.compare a b | c -> c)
    by_distance;
  let ok = ref true in
  Array.iteri (fun p v -> if Ni.position ni v <> p then ok := false) by_distance;
  Array.iteri
    (fun i v ->
      expected.(v) <- expected.(v) + want.(i);
      if got.(v) <> want.(i) || Ni.node_storage_bits ni v <> want.(i) then ok := false;
      if Tree_labels.label_bits_at tl i <> label.(i)
         || Tree_labels.node_storage_bits_at tl i <> storage.(i)
         || Tree_labels.label_bits (Tree_labels.label tl v) <> label.(i)
      then ok := false)
    (Tree.nodes tree);
  !ok && Array.fold_left ( + ) 0 got = Array.fold_left ( + ) 0 want

(* Every T(v) of a graph, three ways: spanning everything, spanning the
   nodes that hold v among their 8 closest (the shape of AGM06's
   trees), and spanning a sparse random sample (Steiner relays). *)
let core_matches_on_graph g ~k =
  let n = Graph.n g in
  let apsp = Cr_graph.Apsp.compute g in
  let near = Array.make n [] in
  for u = n - 1 downto 0 do
    Array.iter
      (fun v -> near.(v) <- u :: near.(v))
      (Cr_graph.Ball.closest (Cr_graph.Apsp.ball apsp u) 8)
  done;
  let rng = Rng.create n in
  let expected = Array.make n 0 and total = Array.make n 0 in
  let relays = ref 0 and ok = ref true in
  for v = 0 to n - 1 do
    let res = Cr_graph.Apsp.sssp apsp v in
    let sample = Array.of_list (List.filter (fun _ -> Rng.int rng 8 = 0) (Array.to_list res.Dijkstra.order)) in
    List.iter
      (fun members ->
        if Array.length members > 0 then begin
          if not (core_matches ~seed:(v + 1) ~k ~n_global:n g res ~members expected) then ok := false;
          Ni.add_storage_bits ~seed:(v + 1) ~k ~n_global:n g res ~members total;
          let t = Tree.of_sssp g res ~members in
          relays := !relays + Tree.size t - Array.length (Tree.members t)
        end)
      [ res.Dijkstra.order; Array.of_list near.(v); sample ]
  done;
  (* one array accumulates every tree, as [Agm06.build] uses it *)
  !ok && total = expected && !relays > 0

let test_ni_core_on_families () =
  let module E = Compact_routing.Experiment in
  let plain w = E.make_graph ~seed:3 w in
  let pl n = E.Power_law { n; exponent = 2.5 } in
  List.iter
    (fun (name, g) -> checkb (name ^ ": core bits equal the formula") true (core_matches_on_graph g ~k:3))
    [
      ("er:96", plain (E.Erdos_renyi { n = 96; avg_degree = 4.0 }));
      ("geo:96", plain (E.Geometric { n = 96; radius = 0.2 }));
      ("grid:9x9", plain (E.Grid { rows = 9; cols = 9 }));
      ("pl:128", plain (pl 128));
      ("expline:48:2", plain (E.Exp_line { n = 48; base = 2.0 }));
      ("pl:128 aspect 2^60", E.make_graph_with_aspect ~seed:3 ~target_aspect:(2.0 ** 60.0) (pl 128));
    ]

(* A zero-length relaxation (2^60 + 1 = 2^60) puts node 2 before its
   parent 3 in (distance, index) order; summing subtree sizes in that
   order would tie 3's subtree with 1's and make 1 the root's heavy
   child.  On a fresh domain, so that no earlier tree's leftovers in
   the scratch can hide the miscount. *)
let test_ni_core_child_before_parent () =
  let g = Graph.create ~n:4 [ (0, 1, 1.0); (0, 3, 2.0 ** 60.0); (3, 2, 1.0) ] in
  let res = Dijkstra.run g 0 in
  Alcotest.(check (array int)) "child 2 listed before its parent 3" [| 0; 1; 2; 3 |]
    res.Dijkstra.order;
  checki "parent of 2" 3 res.Dijkstra.parent.(2);
  let matches () = core_matches ~k:3 ~n_global:4 g res ~members:res.Dijkstra.order (Array.make 4 0) in
  checkb "core bits equal the formula" true (Domain.join (Domain.spawn matches))

(* With sigma = 2 and directories of 4, some seed overloads a
   directory and the tree is re-seeded. *)
let test_ni_core_reseeded () =
  let rec find seed =
    if seed > 500 then Alcotest.fail "no tree re-seeded"
    else begin
      let rng = Rng.create seed in
      let g = Graph.relabel rng (Generators.random_tree rng ~n:7) in
      let res = Dijkstra.run g 0 in
      let ni = Ni.build ~seed ~k:2 ~n_global:4 g res ~members:res.Dijkstra.order in
      if Ni.hash_seed ni = seed then find (seed + 1) else (g, res, seed)
    end
  in
  let g, res, seed = find 0 in
  checkb "core bits equal the formula" true
    (core_matches ~seed ~k:2 ~n_global:4 g res ~members:res.Dijkstra.order (Array.make 7 0))

(* ------------------------------------------------------------------ *)
(* Dense_tree_routing (Lemma 7) *)

let test_dense_finds_all_members () =
  let rng = Rng.create 71 in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n:120 ~avg_degree:4.0) in
  let t = Tree.spanning g 0 in
  let d = Dense.build t in
  Array.iter
    (fun v ->
      let r = Dense.search d (Graph.name_of g v) in
      (match r.Dense.outcome with
      | Dense.Found u -> checki "right node" v u
      | Dense.Not_found_reported -> Alcotest.failf "member %d missed" v);
      ignore (walk_cost g r.Dense.walk))
    (Tree.nodes t)

let test_dense_cost_bound () =
  let rng = Rng.create 73 in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n:150 ~avg_degree:4.0) in
  let t = Tree.spanning g 0 in
  let d = Dense.build t in
  let bound = Dense.cost_bound d in
  Array.iter
    (fun v ->
      let r = Dense.search d (Graph.name_of g v) in
      let cost = walk_cost g r.Dense.walk in
      checkb (Printf.sprintf "cost %.2f <= %.2f" cost bound) true (cost <= bound +. 1e-6))
    (Tree.nodes t)

let test_dense_absent_roundtrip () =
  let rng = Rng.create 79 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:60) in
  let t = Tree.spanning g 0 in
  let d = Dense.build t in
  let r = Dense.search d 123_456_789 in
  checkb "not found" true (r.Dense.outcome = Dense.Not_found_reported);
  (match (r.Dense.walk, List.rev r.Dense.walk) with
  | first :: _, last :: _ ->
      checki "starts at root" 0 first;
      checki "ends at root" 0 last
  | _ -> Alcotest.fail "empty walk");
  let cost = walk_cost g r.Dense.walk in
  checkb "failure cost bounded" true (cost <= Dense.cost_bound d +. 1e-6)

let test_dense_relays_not_searchable () =
  let g = small_graph () in
  (* keep only node 3: nodes 1,2 are relays *)
  let t = Tree.of_sssp g (Dijkstra.run g 0) ~members:[| 3 |] in
  let d = Dense.build t in
  let r3 = Dense.search d (Graph.name_of g 3) in
  checkb "member found" true (match r3.Dense.outcome with Dense.Found u -> u = 3 | _ -> false);
  let r2 = Dense.search d (Graph.name_of g 2) in
  checkb "relay not in directory" true (r2.Dense.outcome = Dense.Not_found_reported)

let test_dense_storage_positive () =
  let rng = Rng.create 83 in
  let g = Graph.relabel rng (Generators.random_tree rng ~n:80) in
  let t = Tree.spanning g 0 in
  let d = Dense.build t in
  Array.iter (fun v -> checkb "positive" true (Dense.node_storage_bits d v > 0)) (Tree.nodes t);
  checkb "total" true (Dense.total_storage_bits d > 0)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let tree_gen =
  QCheck.Gen.(
    map2
      (fun seed n ->
        let rng = Rng.create seed in
        let g = Graph.relabel rng (Generators.random_tree rng ~n:(n + 2)) in
        Tree.spanning g 0)
      (int_range 0 10_000) (int_range 3 80))

let arb_tree =
  QCheck.make ~print:(fun t -> Printf.sprintf "<tree m=%d>" (Tree.size t)) tree_gen

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"labeled route equals tree path" ~count:40 arb_tree (fun t ->
        let tl = Tree_labels.build t in
        let nodes = Tree.nodes t in
        let rng = Rng.create 1 in
        let ok = ref true in
        for _ = 1 to 30 do
          let a = nodes.(Rng.int rng (Array.length nodes)) in
          let b = nodes.(Rng.int rng (Array.length nodes)) in
          if Tree_labels.route tl a b <> Tree.path t a b then ok := false
        done;
        !ok);
    Test.make ~name:"path endpoints and edge validity" ~count:40 arb_tree (fun t ->
        let nodes = Tree.nodes t in
        let g = Tree.graph t in
        let rng = Rng.create 2 in
        let ok = ref true in
        for _ = 1 to 30 do
          let a = nodes.(Rng.int rng (Array.length nodes)) in
          let b = nodes.(Rng.int rng (Array.length nodes)) in
          match Tree.path t a b with
          | [] -> ok := false
          | first :: _ as p ->
              if first <> a then ok := false;
              (match List.rev p with x :: _ -> if x <> b then ok := false | [] -> ok := false);
              let rec adj = function
                | x :: (y :: _ as rest) ->
                    if not (Graph.has_edge g x y) then ok := false;
                    adj rest
                | _ -> ()
              in
              adj p
        done;
        !ok);
    Test.make ~name:"path_length = sum of path edges" ~count:40 arb_tree (fun t ->
        let nodes = Tree.nodes t in
        let g = Tree.graph t in
        let rng = Rng.create 3 in
        let ok = ref true in
        for _ = 1 to 20 do
          let a = nodes.(Rng.int rng (Array.length nodes)) in
          let b = nodes.(Rng.int rng (Array.length nodes)) in
          let p = Tree.path t a b in
          let rec cost acc = function
            | x :: (y :: _ as rest) -> cost (acc +. Option.get (Graph.edge_weight g x y)) rest
            | _ -> acc
          in
          if Float.abs (cost 0.0 p -. Tree.path_length t a b) > 1e-6 then ok := false
        done;
        !ok);
    Test.make ~name:"ni search finds every member" ~count:15 arb_tree (fun t ->
        let g = Tree.graph t in
        let res = Dijkstra.run g (Tree.root t) in
        let ni = Ni.build ~k:3 ~n_global:(Graph.n g) g res ~members:res.Dijkstra.order in
        Array.for_all
          (fun v ->
            match (Ni.search ni ~bound:3 (Graph.name_of g v)).Ni.outcome with
            | Ni.Found u -> u = v
            | Ni.Not_found_reported -> false)
          (Tree.nodes t));
    Test.make ~name:"dense search finds every member within bound" ~count:15 arb_tree
      (fun t ->
        let g = Tree.graph t in
        let d = Dense.build t in
        Array.for_all
          (fun v ->
            let r = Dense.search d (Graph.name_of g v) in
            match r.Dense.outcome with
            | Dense.Found u ->
                u = v && walk_cost g r.Dense.walk <= Dense.cost_bound d +. 1e-6
            | Dense.Not_found_reported -> false)
          (Tree.nodes t));
    Test.make ~name:"dfs intervals nest correctly" ~count:30 arb_tree (fun t ->
        Array.for_all
          (fun v ->
            let lo, hi = Tree.subtree_interval t v in
            Array.for_all
              (fun c ->
                let clo, chi = Tree.subtree_interval t c in
                clo > lo && chi <= hi)
              (Tree.children t v)
            && hi - lo >= 1)
          (Tree.nodes t));
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "tree"
    [
      ( "tree",
        [
          Alcotest.test_case "spanning" `Quick test_tree_spanning;
          Alcotest.test_case "keep with relays" `Quick test_tree_keep_with_relays;
          Alcotest.test_case "no kept raises" `Quick test_tree_no_kept_raises;
          Alcotest.test_case "lca and path" `Quick test_tree_lca_path;
          Alcotest.test_case "dfs" `Quick test_tree_dfs;
          Alcotest.test_case "by root distance" `Quick test_tree_by_root_distance;
          Alcotest.test_case "depth consistency" `Quick test_tree_depth_consistency;
        ] );
      ( "tree_labels",
        [
          Alcotest.test_case "small" `Quick test_labels_small;
          Alcotest.test_case "star" `Quick test_labels_star;
          Alcotest.test_case "path graph" `Quick test_labels_path_graph;
          Alcotest.test_case "random trees" `Quick test_labels_random_trees;
          Alcotest.test_case "bits reasonable" `Quick test_labels_bits_reasonable;
          Alcotest.test_case "next_hop at dest" `Quick test_labels_next_hop_none_at_dest;
        ] );
      ( "ni_tree_routing",
        [
          Alcotest.test_case "finds every node" `Quick test_ni_finds_every_node;
          Alcotest.test_case "stretch bound 2k-1" `Quick test_ni_stretch_bound;
          Alcotest.test_case "found at name level" `Quick test_ni_tighter_bound_per_name_level;
          Alcotest.test_case "negative returns to root" `Quick test_ni_negative_response_returns_to_root;
          Alcotest.test_case "negative cost bound" `Quick test_ni_negative_cost_bound;
          Alcotest.test_case "bounded search semantics" `Quick test_ni_bounded_search_semantics;
          Alcotest.test_case "guaranteed bound" `Quick test_ni_guaranteed_bound;
          Alcotest.test_case "names well formed" `Quick test_ni_names_are_well_formed;
          Alcotest.test_case "names ordered by distance" `Quick test_ni_names_ordered_by_distance;
          Alcotest.test_case "storage bounded" `Quick test_ni_storage_positive_and_bounded;
          Alcotest.test_case "on SPT of general graph" `Quick test_ni_on_spt_of_general_graph;
          Alcotest.test_case "k=1" `Quick test_ni_k1;
          Alcotest.test_case "prefix load witness" `Quick test_ni_prefix_load_witness;
          Alcotest.test_case "core bits on six families" `Quick test_ni_core_on_families;
          Alcotest.test_case "core child before parent" `Quick test_ni_core_child_before_parent;
          Alcotest.test_case "core re-seeded tree" `Quick test_ni_core_reseeded;
        ] );
      ( "dense_tree_routing",
        [
          Alcotest.test_case "finds all members" `Quick test_dense_finds_all_members;
          Alcotest.test_case "cost bound" `Quick test_dense_cost_bound;
          Alcotest.test_case "absent roundtrip" `Quick test_dense_absent_roundtrip;
          Alcotest.test_case "relays not searchable" `Quick test_dense_relays_not_searchable;
          Alcotest.test_case "storage positive" `Quick test_dense_storage_positive;
        ] );
      ("properties", qsuite);
    ]
