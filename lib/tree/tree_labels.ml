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
}

let equal_label a b = a.branches = b.branches && a.offset = b.offset

let build tree =
  let m = Tree.size tree in
  let nodes = Tree.nodes tree in
  (* subtree sizes, processing nodes in reverse DFS order (leaves first) *)
  let order = Tree.dfs_order tree in
  let sizes = Hashtbl.create m in
  for i = m - 1 downto 0 do
    let v = order.(i) in
    let s =
      Array.fold_left (fun acc c -> acc + Hashtbl.find sizes c) 1 (Tree.children tree v)
    in
    Hashtbl.replace sizes v s
  done;
  let heavy = Array.make m (-1) in
  Array.iteri
    (fun i v ->
      let ch = Tree.children tree v in
      let best = ref (-1) and best_size = ref (-1) in
      Array.iter
        (fun c ->
          let s = Hashtbl.find sizes c in
          if s > !best_size then begin
            best := c;
            best_size := s
          end)
        ch;
      heavy.(i) <- !best)
    nodes;
  let idx v = Tree.tree_index tree v in
  let labels = Array.make m { branches = [||]; offset = 0 } in
  (* assign labels in DFS order: parents before children *)
  Array.iter
    (fun v ->
      if v <> Tree.root tree then begin
        let p = Tree.parent tree v in
        let lp = labels.(idx p) in
        if heavy.(idx p) = v then labels.(idx v) <- { lp with offset = lp.offset + 1 }
        else begin
          let ch = Tree.children tree p in
          let slot = ref (-1) in
          Array.iteri (fun s c -> if c = v then slot := s) ch;
          assert (!slot >= 0);
          labels.(idx v) <-
            { branches = Array.append lp.branches [| (lp.offset, !slot) |]; offset = 0 }
        end
      end)
    order;
  let max_children = Array.fold_left (fun acc v -> max acc (Array.length (Tree.children tree v))) 1 nodes in
  { tree; labels; heavy; offset_bits = Bits.bits_for (max m 2); slot_bits = Bits.bits_for max_children }

let tree t = t.tree

let label t v = t.labels.(Tree.tree_index t.tree v)

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

(* The public [label_bits] has no tree context, so it uses
   self-describing per-field widths; [node_storage_bits] below uses the
   tighter per-tree fixed widths. *)
let label_bits (l : label) =
  let b = Array.length l.branches in
  let field v = Bits.bits_for (max 2 (v + 1)) in
  Array.fold_left (fun acc (o, c) -> acc + field o + field c) (Bits.bits_for (b + 2) + field l.offset) l.branches

let node_storage_bits t v =
  let i = Tree.tree_index t.tree v in
  let own = label_bits_in t t.labels.(i) in
  (* parent pointer + heavy-child pointer, as graph node ids *)
  let ptr = Bits.id_bits ~n:(Cr_graph.Graph.n (Tree.graph t.tree)) in
  own + (2 * ptr)
