module Bits = Cr_util.Bits
module Graph = Cr_graph.Graph

type outcome = Found of int | Not_found_reported

type search_result = { walk : int list; outcome : outcome }

type t = {
  tree : Tree.t;
  dir : Directory.t; (* slot = DFS index: ident -> tree index *)
  bits : int array; (* tree index -> storage bits, see [node_storage_bits] *)
}

(* Deterministic avalanche of an identifier into [0, m). *)
let slot_of ident m =
  let z = Int64.of_int (ident + 0x9E37) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 8) mod m

let build tree =
  let labels = Tree_labels.build tree in
  let m = Tree.size tree in
  let g = Tree.graph tree in
  let nodes = Tree.nodes tree in
  let ident_of i = Graph.name_of g nodes.(i) in
  (* members in identifier order, as the directory takes them *)
  let members = Array.of_list (List.filter (Tree.is_member_at tree) (List.init m Fun.id)) in
  Array.stable_sort (fun a b -> Int.compare (ident_of a) (ident_of b)) members;
  let ident = Array.map ident_of members in
  let dir =
    Directory.build ~slots:m ~slot:(Array.map (fun x -> slot_of x m) ident) ~ident ~target:members
  in
  (* Bits stored at each node, once: own label, child intervals/ports,
     and directory entries (identifier plus label each). *)
  let ident_bits = 2 * Bits.id_bits ~n:(Graph.n g) in
  let interval_bits = 2 * Bits.bits_for (max 2 m) in
  let bits = Array.make m 0 in
  Array.iteri
    (fun q i ->
      let child_bits = Array.length (Tree.children_at tree i) * interval_bits in
      let dir_bits =
        Directory.fold_targets dir q
          (fun acc u -> acc + ident_bits + Tree_labels.label_bits_at labels u)
          0
      in
      bits.(i) <- Tree_labels.node_storage_bits_at labels i + child_bits + dir_bits)
    (Tree.preorder tree);
  { tree; dir; bits }

let tree t = t.tree

let append_path tree walk_rev a b =
  match Tree.path tree a b with
  | [] -> walk_rev
  | _first :: rest -> List.rev_append rest walk_rev

(* The search descends from the root to the node with DFS index q, each
   step a local decision on stored child intervals; the walk that makes
   is the tree path from the root to that node. *)
let search ?trace t ident =
  let tree = t.tree in
  let root = Tree.root tree in
  let m = Tree.size tree in
  let q = slot_of ident m in
  let dir_node = Tree.dfs_node tree q in
  let down = Tree.path tree root dir_node in
  (match trace with
  | None -> ()
  | Some f -> f (Cr_obs.Trace.Tree_step { round = 1; from_node = root; to_node = dir_node }));
  let walk_rev = List.rev down in
  match Directory.find t.dir q ident with
  | i when i >= 0 ->
      let v = (Tree.nodes tree).(i) in
      (match trace with
      | None -> ()
      | Some f -> f (Cr_obs.Trace.Tree_step { round = 2; from_node = dir_node; to_node = v }));
      let walk_rev = append_path tree walk_rev dir_node v in
      { walk = List.rev walk_rev; outcome = Found v }
  | _ ->
      let walk_rev = append_path tree walk_rev dir_node root in
      { walk = List.rev walk_rev; outcome = Not_found_reported }

let cost_bound t =
  let k = Bits.bits_for (max 2 (Tree.size t.tree)) in
  (4.0 *. Tree.radius t.tree) +. (2.0 *. float_of_int k *. Tree.max_edge t.tree)

let node_storage_bits t v = t.bits.(Tree.tree_index t.tree v)

let total_storage_bits t = Array.fold_left ( + ) 0 t.bits
