module Bits = Cr_util.Bits

type label = {
  branches : (int * int) array; (* (offset on heavy path, child slot taken) *)
  offset : int; (* final offset on the last heavy path *)
}

type t = {
  tree : Tree.t;
  heavy : int array; (* tree index -> tree index of its heavy child, -1 for a leaf *)
  bits : int array; (* tree index -> label_bits of its label *)
  storage : int array; (* tree index -> node storage bits *)
}

let equal_label a b = a.branches = b.branches && a.offset = b.offset

(* The public [label_bits] has no tree context, so it uses
   self-describing per-field widths; node storage uses the tighter
   per-tree fixed widths. *)
let field v = Bits.bits_for (max 2 (v + 1))

let label_bits (l : label) =
  let b = Array.length l.branches in
  Array.fold_left (fun acc (o, c) -> acc + field o + field c) (Bits.bits_for (b + 2) + field l.offset) l.branches

(* The label rule.  Heavy child: the first child (by graph id) with the
   largest subtree.  A heavy child's label is its parent's with the
   offset advanced; a light child's appends the branch (parent's
   offset, its slot among the parent's children) and restarts the
   offset.  So along a heavy path the branches are fixed and only the
   offset counts up, and the bits follow without building a label.
   [label_bits] holds the subtree sizes until the labels overwrite
   them. *)
let bits_of_shape ~n ~m ~order ~first_child ~next_sibling ~heavy ~label_bits ~storage_bits =
  let size = label_bits in
  let max_children = ref 1 in
  for j = m - 1 downto 0 do
    let x = order.(j) in
    let s = ref 1 and best = ref 0 and h = ref (-1) and count = ref 0 in
    let c = ref first_child.(x) in
    while !c >= 0 do
      let sc = size.(!c) in
      s := !s + sc;
      if sc > !best then begin
        best := sc;
        h := !c
      end;
      incr count;
      c := next_sibling.(!c)
    done;
    size.(x) <- !s;
    heavy.(x) <- !h;
    if !count > !max_children then max_children := !count
  done;
  (* label encoding: branch count header + per-branch (offset, slot) +
     final offset; parent and heavy-child pointers as graph node ids *)
  let offset_bits = Bits.bits_for (max m 2) and slot_bits = Bits.bits_for !max_children in
  let pointers = 2 * Bits.id_bits ~n in
  (* the heavy path from [head], whose label has [b] branches of [f]
     field bits; light children start paths of their own, at most
     log2 m deep *)
  let rec path head b f =
    let header = Bits.bits_for (b + 2) in
    let storage = header + (b * (offset_bits + slot_bits)) + offset_bits + pointers in
    let x = ref head and offset = ref 0 in
    while !x >= 0 do
      let y = !x in
      label_bits.(y) <- header + field !offset + f;
      storage_bits.(y) <- storage;
      let c = ref first_child.(y) and slot = ref 0 in
      while !c >= 0 do
        if !c <> heavy.(y) then path !c (b + 1) (f + field !offset + field !slot);
        incr slot;
        c := next_sibling.(!c)
      done;
      x := heavy.(y);
      incr offset
    done
  in
  path order.(0) 0 0

let build tree =
  let m = Tree.size tree in
  (* tree indexes ascend with graph ids: pushing them in descending
     order lists every node's children in ascending order *)
  let first_child = Array.make m (-1) and next_sibling = Array.make m (-1) in
  for i = m - 1 downto 0 do
    let p = Tree.parent_at tree i in
    if p >= 0 then begin
      next_sibling.(i) <- first_child.(p);
      first_child.(p) <- i
    end
  done;
  let heavy = Array.make m (-1) and bits = Array.make m 0 and storage = Array.make m 0 in
  bits_of_shape ~n:(Cr_graph.Graph.n (Tree.graph tree)) ~m ~order:(Tree.preorder tree)
    ~first_child ~next_sibling ~heavy ~label_bits:bits ~storage_bits:storage;
  { tree; heavy; bits; storage }

(* The slot of tree index [c] among the children of [p]: its rank by
   graph id. *)
let slot tree p c =
  let children = Tree.children_at tree p and v = (Tree.nodes tree).(c) in
  let rec find s = if children.(s) = v then s else find (s + 1) in
  find 0

(* One label, by the rule [bits_of_shape] counts: down from the root
   along the node's ancestors. *)
let label_at t i =
  let tree = t.tree in
  let rec up x acc = if x < 0 then acc else up (Tree.parent_at tree x) (x :: acc) in
  let rec down p path branches offset =
    match path with
    | [] -> { branches = Array.of_list (List.rev branches); offset }
    | c :: rest ->
        if t.heavy.(p) = c then down c rest branches (offset + 1)
        else down c rest ((offset, slot tree p c) :: branches) 0
  in
  match up i [] with root :: path -> down root path [] 0 | [] -> assert false

let label t v = label_at t (Tree.tree_index t.tree v)

let label_bits_at t i = t.bits.(i)

let node_storage_bits_at t i = t.storage.(i)

let next_hop t v dest =
  let tree = t.tree in
  let i = Tree.tree_index tree v in
  let own = label_at t i in
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
      Some (Tree.nodes tree).(h)
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
