module Graph = Cr_graph.Graph
module Dijkstra = Cr_graph.Dijkstra

type t = {
  graph : Graph.t;
  root : int;
  nodes : int array; (* tree index -> graph id *)
  idx : (int, int) Hashtbl.t; (* graph id -> tree index *)
  parent : int array; (* tree index -> graph id of parent, -1 for root *)
  children : int array array; (* tree index -> graph ids, ascending *)
  depth_w : float array;
  depth_h : int array;
  member : bool array;
  mutable dfs : int array option; (* graph ids in preorder *)
  mutable dfs_idx : (int, int) Hashtbl.t option;
  mutable subtree_hi : int array option; (* by dfs position: end of interval *)
}

let of_sssp g (res : Dijkstra.result) ~keep =
  let n = Graph.n g in
  let in_tree = Array.make n false in
  let member = Array.make n false in
  let any = ref false in
  (* Mark kept nodes and pull in ancestors as relays. *)
  for v = 0 to n - 1 do
    if res.Dijkstra.dist.(v) < infinity && keep v then begin
      any := true;
      member.(v) <- true;
      let rec up x =
        if not in_tree.(x) then begin
          in_tree.(x) <- true;
          if x <> res.Dijkstra.source then up res.Dijkstra.parent.(x)
        end
      in
      up v
    end
  done;
  if not !any then invalid_arg "Tree.of_sssp: no kept node reachable";
  in_tree.(res.Dijkstra.source) <- true;
  let nodes =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if in_tree.(v) then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  let m = Array.length nodes in
  let idx = Hashtbl.create (2 * m) in
  Array.iteri (fun i v -> Hashtbl.replace idx v i) nodes;
  let parent = Array.make m (-1) in
  let child_lists = Array.make m [] in
  Array.iteri
    (fun i v ->
      if v <> res.Dijkstra.source then begin
        let p = res.Dijkstra.parent.(v) in
        parent.(i) <- p;
        let pi = Hashtbl.find idx p in
        child_lists.(pi) <- v :: child_lists.(pi)
      end)
    nodes;
  let children = Array.map (fun l -> Array.of_list (List.sort compare l)) child_lists in
  let depth_w = Array.make m 0.0 in
  let depth_h = Array.make m 0 in
  (* nodes ascending by graph id is not topological; compute depths by
     walking up with memoization. *)
  let computed = Array.make m false in
  let rec fill i =
    if not computed.(i) then begin
      let v = nodes.(i) in
      if parent.(i) = -1 then begin
        depth_w.(i) <- 0.0;
        depth_h.(i) <- 0
      end
      else begin
        let pi = Hashtbl.find idx parent.(i) in
        fill pi;
        let w =
          match Graph.edge_weight g parent.(i) v with
          | Some w -> w
          | None -> invalid_arg "Tree.of_sssp: tree edge not in graph"
        in
        depth_w.(i) <- depth_w.(pi) +. w;
        depth_h.(i) <- depth_h.(pi) + 1
      end;
      computed.(i) <- true
    end
  in
  for i = 0 to m - 1 do
    fill i
  done;
  let member_arr = Array.map (fun v -> member.(v) || v = res.Dijkstra.source) nodes in
  {
    graph = g;
    root = res.Dijkstra.source;
    nodes;
    idx;
    parent;
    children;
    depth_w;
    depth_h;
    member = member_arr;
    dfs = None;
    dfs_idx = None;
    subtree_hi = None;
  }

let spanning g root = of_sssp g (Dijkstra.run g root) ~keep:(fun _ -> true)

let graph t = t.graph

let root t = t.root

let size t = Array.length t.nodes

let nodes t = t.nodes

let mem t v = Hashtbl.mem t.idx v

let tree_index t v =
  match Hashtbl.find_opt t.idx v with Some i -> i | None -> raise Not_found

let is_member t v =
  match Hashtbl.find_opt t.idx v with Some i -> t.member.(i) | None -> false


let parent t v = t.parent.(tree_index t v)

let children t v = t.children.(tree_index t v)

let depth t v = t.depth_w.(tree_index t v)

let hop_depth t v = t.depth_h.(tree_index t v)

let radius t = Array.fold_left max 0.0 t.depth_w

let max_edge t =
  let best = ref 0.0 in
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        match Graph.edge_weight t.graph p t.nodes.(i) with
        | Some w -> if w > !best then best := w
        | None -> assert false
      end)
    t.parent;
  !best

let lca t a b =
  let ia = ref (tree_index t a) and ib = ref (tree_index t b) in
  while t.depth_h.(!ia) > t.depth_h.(!ib) do
    ia := tree_index t t.parent.(!ia)
  done;
  while t.depth_h.(!ib) > t.depth_h.(!ia) do
    ib := tree_index t t.parent.(!ib)
  done;
  while !ia <> !ib do
    ia := tree_index t t.parent.(!ia);
    ib := tree_index t t.parent.(!ib)
  done;
  t.nodes.(!ia)

let path t a b =
  let l = lca t a b in
  let rec up x acc = if x = l then x :: acc else up t.parent.(tree_index t x) (x :: acc) in
  let up_a = List.rev (up a []) (* a ... l *) in
  let down_b = up b [] (* l ... b *) in
  match down_b with
  | _l :: rest -> up_a @ rest
  | [] -> assert false

let path_length t a b =
  let l = lca t a b in
  depth t a +. depth t b -. (2.0 *. depth t l)

let ensure_dfs t =
  match t.dfs with
  | Some _ -> ()
  | None ->
      let m = size t in
      let order = Array.make m (-1) in
      let hi = Array.make m (-1) in
      let pos = ref 0 in
      (* explicit stack to avoid deep recursion on path graphs *)
      let stack = Stack.create () in
      (* frames: (graph node, post) where post=true means finish *)
      Stack.push (t.root, false) stack;
      let my_pos = Hashtbl.create m in
      while not (Stack.is_empty stack) do
        let v, post = Stack.pop stack in
        if post then begin
          let p = Hashtbl.find my_pos v in
          hi.(p) <- !pos
        end
        else begin
          let p = !pos in
          incr pos;
          order.(p) <- v;
          Hashtbl.replace my_pos v p;
          Stack.push (v, true) stack;
          let ch = t.children.(tree_index t v) in
          for i = Array.length ch - 1 downto 0 do
            Stack.push (ch.(i), false) stack
          done
        end
      done;
      let idx_tbl = Hashtbl.create m in
      Array.iteri (fun i v -> Hashtbl.replace idx_tbl v i) order;
      t.dfs <- Some order;
      t.dfs_idx <- Some idx_tbl;
      t.subtree_hi <- Some hi

let dfs_order t =
  ensure_dfs t;
  Option.get t.dfs

let dfs_index t v =
  ensure_dfs t;
  match Hashtbl.find_opt (Option.get t.dfs_idx) v with
  | Some i -> i
  | None -> raise Not_found

let subtree_interval t v =
  ensure_dfs t;
  let lo = dfs_index t v in
  let hi = (Option.get t.subtree_hi).(lo) in
  (lo, hi)

let members t =
  let acc = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    if t.member.(i) then acc := t.nodes.(i) :: !acc
  done;
  Array.of_list !acc

let by_root_distance t =
  let arr = Array.copy t.nodes in
  let key v =
    let i = tree_index t v in
    (t.depth_w.(i), v)
  in
  Array.sort (fun a b -> compare (key a) (key b)) arr;
  arr
