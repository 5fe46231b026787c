module Graph = Cr_graph.Graph
module Dijkstra = Cr_graph.Dijkstra

type t = {
  graph : Graph.t;
  root : int;
  nodes : int array; (* tree index -> graph id, ascending *)
  parent : int array; (* tree index -> tree index of the parent, -1 for the root *)
  children : int array array; (* tree index -> graph ids, ascending *)
  depth_w : float array;
  depth_h : int array;
  member : bool array;
  dfs : int array; (* preorder position -> tree index *)
  dfs_pos : int array; (* tree index -> preorder position *)
  sub_size : int array; (* tree index -> size of its subtree *)
}

(* Graph-sized marks for collecting a tree's nodes: [stamp.(v) = gen]
   says v is collected for the tree being built, and [slot.(v)] is then
   its tree index.  Stamping with a fresh generation per tree means the
   arrays are never cleared, so a tree costs time and space in
   proportion to its own size.  One per domain, grown to the largest
   graph seen. *)
type marks = { mutable stamp : int array; mutable slot : int array; mutable gen : int }

let marks_key = Domain.DLS.new_key (fun () -> { stamp = [||]; slot = [||]; gen = 0 })

let of_sssp g (res : Dijkstra.result) ~members =
  let n = Graph.n g in
  let mk = Domain.DLS.get marks_key in
  if Array.length mk.stamp < n then begin
    mk.stamp <- Array.make n 0;
    mk.slot <- Array.make n 0
  end;
  mk.gen <- mk.gen + 1;
  let gen = mk.gen and stamp = mk.stamp and slot = mk.slot in
  let root = res.Dijkstra.source in
  (* Collect the reachable members and pull in their ancestors as relays,
     climbing only until the path meets a node already collected. *)
  stamp.(root) <- gen;
  let acc = ref [ root ] and any = ref false in
  Array.iter
    (fun v ->
      if res.Dijkstra.dist.(v) < infinity then begin
        any := true;
        let x = ref v in
        while stamp.(!x) <> gen do
          stamp.(!x) <- gen;
          acc := !x :: !acc;
          x := res.Dijkstra.parent.(!x)
        done
      end)
    members;
  if not !any then invalid_arg "Tree.of_sssp: no member reachable";
  let nodes = Array.of_list !acc in
  Array.stable_sort Int.compare nodes;
  let m = Array.length nodes in
  Array.iteri (fun i v -> slot.(v) <- i) nodes;
  let member = Array.make m false in
  member.(slot.(root)) <- true;
  Array.iter (fun v -> if res.Dijkstra.dist.(v) < infinity then member.(slot.(v)) <- true) members;
  let parent =
    Array.map (fun v -> if v = root then -1 else slot.(res.Dijkstra.parent.(v))) nodes
  in
  (* children by ascending id: fill in tree-index order *)
  let n_children = Array.make m 0 in
  Array.iter (fun p -> if p >= 0 then n_children.(p) <- n_children.(p) + 1) parent;
  let children = Array.map (fun c -> if c = 0 then [||] else Array.make c 0) n_children in
  let fill = Array.make m 0 in
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        children.(p).(fill.(p)) <- nodes.(i);
        fill.(p) <- fill.(p) + 1
      end)
    parent;
  (* A tree path is the shortest path it was cut from, so a node's
     weighted depth is its distance in [res], bit for bit. *)
  let depth_w = Array.map (fun v -> res.Dijkstra.dist.(v)) nodes in
  (* preorder, children in ascending id; hop depths on the way down *)
  let depth_h = Array.make m 0 in
  let dfs = Array.make m 0 and dfs_pos = Array.make m 0 in
  let stack = Array.make m 0 in
  let top = ref 1 and pos = ref 0 in
  stack.(0) <- slot.(root);
  while !top > 0 do
    decr top;
    let i = stack.(!top) in
    dfs.(!pos) <- i;
    dfs_pos.(i) <- !pos;
    incr pos;
    let ch = children.(i) in
    for c = Array.length ch - 1 downto 0 do
      let ci = slot.(ch.(c)) in
      depth_h.(ci) <- depth_h.(i) + 1;
      stack.(!top) <- ci;
      incr top
    done
  done;
  (* subtree sizes, children before parents *)
  let sub_size = Array.make m 1 in
  for p = m - 1 downto 1 do
    let i = dfs.(p) in
    sub_size.(parent.(i)) <- sub_size.(parent.(i)) + sub_size.(i)
  done;
  { graph = g; root; nodes; parent; children; depth_w; depth_h; member; dfs; dfs_pos; sub_size }

let spanning g root =
  let res = Dijkstra.run g root in
  of_sssp g res ~members:res.Dijkstra.order

let graph t = t.graph

let root t = t.root

let size t = Array.length t.nodes

let nodes t = t.nodes

(* [nodes] is sorted: binary search, -1 when absent *)
let find t v =
  let lo = ref 0 and hi = ref (Array.length t.nodes) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.nodes.(mid) <= v then lo := mid else hi := mid
  done;
  if !hi > !lo && t.nodes.(!lo) = v then !lo else -1

let mem t v = find t v >= 0

let tree_index t v =
  let i = find t v in
  if i < 0 then raise Not_found else i

let is_member t v =
  let i = find t v in
  i >= 0 && t.member.(i)

let parent t v =
  let p = t.parent.(tree_index t v) in
  if p < 0 then -1 else t.nodes.(p)

let children t v = t.children.(tree_index t v)

let depth t v = t.depth_w.(tree_index t v)

let hop_depth t v = t.depth_h.(tree_index t v)

let radius t = Array.fold_left max 0.0 t.depth_w

let max_edge t =
  let best = ref 0.0 in
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        match Graph.edge_weight t.graph t.nodes.(p) t.nodes.(i) with
        | Some w -> if w > !best then best := w
        | None -> assert false
      end)
    t.parent;
  !best

let lca_index t ia ib =
  let ia = ref ia and ib = ref ib in
  while t.depth_h.(!ia) > t.depth_h.(!ib) do
    ia := t.parent.(!ia)
  done;
  while t.depth_h.(!ib) > t.depth_h.(!ia) do
    ib := t.parent.(!ib)
  done;
  while !ia <> !ib do
    ia := t.parent.(!ia);
    ib := t.parent.(!ib)
  done;
  !ia

let lca t a b = t.nodes.(lca_index t (tree_index t a) (tree_index t b))

let path t a b =
  let ia = tree_index t a and ib = tree_index t b in
  let l = lca_index t ia ib in
  (* [climb x []] is the path from just below [l] down to [x] *)
  let rec climb x acc = if x = l then acc else climb t.parent.(x) (t.nodes.(x) :: acc) in
  List.rev_append (climb ia []) (t.nodes.(l) :: climb ib [])

let path_length t a b =
  let l = lca t a b in
  depth t a +. depth t b -. (2.0 *. depth t l)

let dfs_order t = Array.map (fun i -> t.nodes.(i)) t.dfs

let dfs_index t v = t.dfs_pos.(tree_index t v)

let dfs_node t q = t.nodes.(t.dfs.(q))

let subtree_interval t v =
  let i = tree_index t v in
  (t.dfs_pos.(i), t.dfs_pos.(i) + t.sub_size.(i))

let members t =
  let acc = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    if t.member.(i) then acc := t.nodes.(i) :: !acc
  done;
  Array.of_list !acc

let parent_at t i = t.parent.(i)

let children_at t i = t.children.(i)

let is_member_at t i = t.member.(i)

let preorder t = t.dfs
