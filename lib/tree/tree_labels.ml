module Bits = Cr_util.Bits

type label = {
  branches : (int * int) array; (* (offset on heavy path, child slot taken) *)
  offset : int; (* final offset on the last heavy path *)
}

type t = {
  tree : Tree.t;
  labels : label array; (* by tree index *)
  heavy : int array; (* tree index -> graph id of heavy child, -1 for leaf *)
  offset_bits : int;
  slot_bits : int;
  bits : int array; (* tree index -> label_bits of its label *)
}

let equal_label a b = a.branches = b.branches && a.offset = b.offset

(* The public [label_bits] has no tree context, so it uses
   self-describing per-field widths; [node_storage_bits] below uses the
   tighter per-tree fixed widths. *)
let label_bits (l : label) =
  let b = Array.length l.branches in
  let field v = Bits.bits_for (max 2 (v + 1)) in
  Array.fold_left (fun acc (o, c) -> acc + field o + field c) (Bits.bits_for (b + 2) + field l.offset) l.branches

let build tree =
  let m = Tree.size tree in
  let nodes = Tree.nodes tree in
  (* Heavy child: the first child with the largest subtree.  Tree indexes
     ascend with ids, so this visits each node's children in ascending
     order. *)
  let heavy_i = Array.make m (-1) in
  let best = Array.make m 0 in
  for i = 0 to m - 1 do
    let p = Tree.parent_at tree i in
    if p >= 0 && Tree.subtree_size_at tree i > best.(p) then begin
      best.(p) <- Tree.subtree_size_at tree i;
      heavy_i.(p) <- i
    end
  done;
  (* Labels in preorder, parents before children.  Preorder visits a
     node's children in ascending order, so counting them gives each
     child's slot. *)
  let labels = Array.make m { branches = [||]; offset = 0 } in
  let next_slot = Array.make m 0 in
  Array.iter
    (fun i ->
      let p = Tree.parent_at tree i in
      if p >= 0 then begin
        let slot = next_slot.(p) in
        next_slot.(p) <- slot + 1;
        let lp = labels.(p) in
        labels.(i) <-
          (if heavy_i.(p) = i then { lp with offset = lp.offset + 1 }
           else { branches = Array.append lp.branches [| (lp.offset, slot) |]; offset = 0 })
      end)
    (Tree.preorder tree);
  let max_children = ref 1 in
  for i = 0 to m - 1 do
    max_children := max !max_children (Array.length (Tree.children_at tree i))
  done;
  {
    tree;
    labels;
    heavy = Array.map (fun h -> if h < 0 then -1 else nodes.(h)) heavy_i;
    offset_bits = Bits.bits_for (max m 2);
    slot_bits = Bits.bits_for !max_children;
    bits = Array.map label_bits labels;
  }

let tree t = t.tree

let label t v = t.labels.(Tree.tree_index t.tree v)

let label_bits_at t i = t.bits.(i)

(* label encoding: branch count header + per-branch (offset, slot) + final
   offset.  Widths are per-tree constants known to every node. *)
let label_bits_in t l =
  let b = Array.length l.branches in
  Bits.bits_for (b + 2) + (b * (t.offset_bits + t.slot_bits)) + t.offset_bits

let next_hop t v dest =
  let tree = t.tree in
  let i = Tree.tree_index tree v in
  let own = t.labels.(i) in
  if equal_label own dest then None
  else begin
    let nx = Array.length own.branches and nv = Array.length dest.branches in
    let rec common j =
      if j < nx && j < nv && own.branches.(j) = dest.branches.(j) then common (j + 1) else j
    in
    let j = common 0 in
    let go_parent () = Some (Tree.parent tree v) in
    let go_heavy () =
      let h = t.heavy.(i) in
      assert (h >= 0);
      Some h
    in
    if j < nx then go_parent () (* paths diverged, or v's prefix ends: climb *)
    else if j = nx && j = nv then begin
      (* same heavy path *)
      if dest.offset > own.offset then go_heavy () else go_parent ()
    end
    else begin
      (* j = nx < nv: destination branches off v's current heavy path *)
      let bo, bc = dest.branches.(j) in
      if bo > own.offset then go_heavy ()
      else if bo = own.offset then Some (Tree.children tree v).(bc)
      else go_parent ()
    end
  end

let route t a b =
  let dest = label t b in
  let rec go v acc =
    match next_hop t v dest with
    | None -> List.rev (v :: acc)
    | Some u -> go u (v :: acc)
  in
  go a []

let node_storage_bits_at t i =
  let own = label_bits_in t t.labels.(i) in
  (* parent pointer + heavy-child pointer, as graph node ids *)
  let ptr = Bits.id_bits ~n:(Cr_graph.Graph.n (Tree.graph t.tree)) in
  own + (2 * ptr)

let node_storage_bits t v = node_storage_bits_at t (Tree.tree_index t.tree v)
