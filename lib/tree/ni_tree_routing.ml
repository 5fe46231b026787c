module Bits = Cr_util.Bits
module Digit_hash = Cr_util.Digit_hash
module Graph = Cr_graph.Graph
module Dijkstra = Cr_graph.Dijkstra

type outcome = Found of int | Not_found_reported

type search_result = { walk : int list; outcome : outcome; rounds : int }

(* The parameters a tree's accounting settled on. *)
type plan = { m : int; sigma : int; level_start : int array; cap : int; hash_seed : int }

type t = {
  tree : Tree.t;
  k : int;
  sigma : int;
  cap : int;
  hash : Digit_hash.t;
  hash_seed : int;
  order : int array; (* position -> graph id, by (root distance, id) *)
  position : int array; (* tree index -> position *)
  level_start : int array; (* level_start.(l) = first position with l digits *)
  name_len : int array; (* per tree index *)
  dir : Directory.t; (* slot = position: ident -> tree index *)
  bits : int array; (* tree index -> storage bits, see [node_storage_bits] *)
  max_load : int;
}

(* Positions are named level by level: 1 root, then sigma 1-digit names,
   sigma^2 2-digit names, ...  level_start.(l) is the first position of
   level l; level_start.(k+1) caps the total. *)
let compute_level_starts ~sigma ~k m =
  let starts = Array.make (k + 2) 0 in
  let acc = ref 1 in
  starts.(0) <- 0;
  for l = 1 to k + 1 do
    starts.(l) <- !acc;
    if l <= k then begin
      let cap_level =
        let rec pow acc i = if i = 0 || acc > m then acc else pow (acc * sigma) (i - 1) in
        pow 1 l
      in
      acc := !acc + cap_level
    end
  done;
  if !acc < m then invalid_arg "Ni_tree_routing: tree too large for sigma^k names";
  starts

let level_of_position starts ~k p =
  let rec find l =
    if l > k then invalid_arg "Ni_tree_routing: position beyond last level"
    else if p < starts.(l + 1) then l
    else find (l + 1)
  in
  find 0

let name_of_position ~sigma starts ~k p =
  let l = level_of_position starts ~k p in
  if l = 0 then [||]
  else begin
    let v = ref (p - starts.(l)) in
    let digits = Array.make l 0 in
    for i = l - 1 downto 0 do
      digits.(i) <- !v mod sigma;
      v := !v / sigma
    done;
    digits
  end

(* Position of the node whose name is digits.(0 .. len-1), if assigned. *)
let position_of_name ~sigma starts ~m digits len =
  let v = ref 0 in
  for i = 0 to len - 1 do
    v := (!v * sigma) + digits.(i)
  done;
  let p = starts.(len) + !v in
  if p < m then Some p else None

let sigma_for ~n_global ~k =
  max 2 (Bits.ceil_pow (float_of_int (max 2 n_global)) (1.0 /. float_of_int k))

(* ---- the accounting core ---------------------------------------------

   Every tree's bits come from one pass in per-domain scratch: collect
   the tree's nodes from the shortest-path result, number them by
   position, count labels along heavy paths ([Tree_labels]), offer each
   node to the directories of its hash-prefix names, and add up each
   node's bits.  Nothing here is in proportion to the tree but the
   scratch, so a tree that does not route costs no allocation; [build]
   materializes what [search] reads from what the core leaves behind.

   The scratch is graph-sized marks stamped by generation, never
   cleared (as in [Tree.of_sssp]), and tree-sized arrays grown to the
   largest tree seen.  Tree nodes are numbered by position. *)
type scratch = {
  mutable stamp : int array; (* graph id -> gen when collected *)
  mutable pos : int array; (* graph id -> position, when stamped *)
  mutable topo : int array; (* the tree's nodes, parents first *)
  mutable gen : int;
  mutable node : int array; (* position -> graph id *)
  mutable ident : int array; (* position -> network identifier *)
  mutable first_child : int array;
  mutable next_sibling : int array;
  mutable heavy : int array;
  mutable label_bits : int array;
  mutable bits : int array; (* position -> storage bits *)
  mutable full : int array; (* position -> directory entries admitted *)
  mutable entry : int array;
      (* entry.((p * (k + 1)) + l): the position whose directory admitted
         p under its first l hash digits, or m if none did *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        stamp = [||]; pos = [||]; topo = [||]; gen = 0; node = [||]; ident = [||];
        first_child = [||]; next_sibling = [||]; heavy = [||]; label_bits = [||]; bits = [||];
        full = [||]; entry = [||];
      })

let grow sc ~n ~m ~k =
  if Array.length sc.stamp < n then begin
    sc.stamp <- Array.make n 0;
    sc.pos <- Array.make n 0;
    sc.topo <- Array.make n 0
  end;
  if Array.length sc.node < m then begin
    let c = max m (2 * Array.length sc.node) in
    sc.node <- Array.make c 0;
    sc.ident <- Array.make c 0;
    sc.first_child <- Array.make c 0;
    sc.next_sibling <- Array.make c 0;
    sc.heavy <- Array.make c 0;
    sc.label_bits <- Array.make c 0;
    sc.bits <- Array.make c 0;
    sc.full <- Array.make c 0
  end;
  if Array.length sc.entry < m * (k + 1) then
    sc.entry <- Array.make (max (m * (k + 1)) (2 * Array.length sc.entry)) 0

(* The first trie child's position of the node at position [p] of level
   [l], or [m] if it has none. *)
let first_trie_child ~sigma ~k starts ~m ~l p =
  if l >= k then m else min m (starts.(l + 1) + ((p - starts.(l)) * sigma))

(* One hash seed's attempt.  Directory of each named node: the [cap]
   prefix-matching nodes closest to the root.  Offering nodes in
   position order to the directories of all their hash-prefix names
   admits the closest ones in a single pass.  Then the Lemma 4 delivery
   precondition: every node with a name of l digits is in the directory
   of the node named by the first max(0, l-1) hash digits of its
   identifier (for l = 0, the root must know itself). *)
let admit sc ~k ~m ~sigma ~starts ~cap hash =
  let full = sc.full and entry = sc.entry and ident = sc.ident in
  Array.fill full 0 m 0;
  for p = 0 to m - 1 do
    let v = ref 0 in
    for l = 0 to k do
      if l > 0 then v := (!v * sigma) + Digit_hash.digit hash ident.(p) (l - 1);
      let q = starts.(l) + !v in
      let j = (p * (k + 1)) + l in
      if q < m && full.(q) < cap then begin
        full.(q) <- full.(q) + 1;
        entry.(j) <- q
      end
      else entry.(j) <- m
    done
  done;
  let ok = ref true and l = ref 0 in
  for p = 0 to m - 1 do
    while p >= starts.(!l + 1) do
      incr l
    done;
    if entry.((p * (k + 1)) + max 0 (!l - 1)) = m then ok := false
  done;
  !ok

let account sc ~seed ~k ~n_global g (res : Dijkstra.result) ~members : plan =
  if k < 1 then invalid_arg "Ni_tree_routing.build: k < 1";
  let n = Graph.n g in
  grow sc ~n ~m:0 ~k;
  sc.gen <- sc.gen + 1;
  let gen = sc.gen and stamp = sc.stamp and pos = sc.pos and topo = sc.topo in
  let root = res.Dijkstra.source and dist = res.Dijkstra.dist and parent = res.Dijkstra.parent in
  (* Collect the reachable members and their ancestors, climbing only
     until the path meets a node already collected; each climb is
     turned around, so [topo] lists parents first. *)
  stamp.(root) <- gen;
  topo.(0) <- root;
  let m = ref 1 and any = ref false in
  Array.iter
    (fun v ->
      if dist.(v) < infinity then begin
        any := true;
        let start = !m and x = ref v in
        while stamp.(!x) <> gen do
          stamp.(!x) <- gen;
          topo.(!m) <- !x;
          incr m;
          x := parent.(!x)
        done;
        let i = ref start and j = ref (!m - 1) in
        while !i < !j do
          let a = topo.(!i) in
          topo.(!i) <- topo.(!j);
          topo.(!j) <- a;
          incr i;
          decr j
        done
      end)
    members;
  if not !any then invalid_arg "Ni_tree_routing: no member reachable";
  let m = !m in
  grow sc ~n ~m ~k;
  (* Positions: the tree's nodes in the result's (distance, index)
     order — the a_0, a_1, ... of Lemma 4.  A zero-length relaxation
     can put a child before its parent here, which is why subtree sizes
     follow [topo] instead. *)
  let node = sc.node and ident = sc.ident in
  let order = res.Dijkstra.order in
  let j = ref 0 in
  for p = 0 to m - 1 do
    while stamp.(order.(!j)) <> gen do
      incr j
    done;
    let v = order.(!j) in
    node.(p) <- v;
    ident.(p) <- Graph.name_of g v;
    pos.(v) <- p;
    incr j
  done;
  for j = 0 to m - 1 do
    topo.(j) <- pos.(topo.(j))
  done;
  (* children in ascending graph id: a node's adjacency is sorted by
     neighbor, and its tree children are the collected neighbors whose
     parent it is *)
  let first_child = sc.first_child and next_sibling = sc.next_sibling in
  Array.fill first_child 0 m (-1);
  let edges = ref 0 in
  for p = 0 to m - 1 do
    let u = node.(p) and adj = Graph.neighbors g node.(p) in
    for a = Array.length adj - 1 downto 0 do
      let v, _ = adj.(a) in
      if stamp.(v) = gen && parent.(v) = u then begin
        next_sibling.(pos.(v)) <- first_child.(p);
        first_child.(p) <- pos.(v);
        incr edges
      end
    done
  done;
  if !edges <> m - 1 then invalid_arg "Ni_tree_routing: parent edges missing from the graph";
  let bits = sc.bits and label_bits = sc.label_bits in
  Tree_labels.bits_of_shape ~n ~m ~order:topo ~first_child ~next_sibling ~heavy:sc.heavy
    ~label_bits ~storage_bits:bits;
  let sigma = sigma_for ~n_global ~k in
  let starts = compute_level_starts ~sigma ~k m in
  (* Re-seed on (vanishingly rare) hash overload; double the directory
     capacity if 64 seeds all fail — a constructive version of the
     with-high-probability argument. *)
  let rec attempt cap tries =
    let rec seeds i =
      if i >= 64 then None
      else begin
        let s = seed + (tries * 64) + i in
        if admit sc ~k ~m ~sigma ~starts ~cap (Digit_hash.create ~seed:s ~sigma ~digits:k) then
          Some s
        else seeds (i + 1)
      end
    in
    match seeds 0 with
    | Some s -> (cap, s)
    | None ->
        if cap >= m then failwith "Ni_tree_routing.build: cannot satisfy directory invariant"
        else attempt (min (2 * cap) m) (tries + 1)
  in
  let base_cap = max 1 (sigma * Bits.bits_for (max 2 n_global)) in
  let cap, hash_seed = attempt (min base_cap m) 0 in
  (* Bits stored at each node, on top of its own routing info: the hash
     function, trie children (presence bitmap over sigma slots plus one
     label each), and directory entries (identifier plus label each). *)
  let ident_bits = 2 * Bits.id_bits ~n and hash_bits = Digit_hash.storage_bits ~n in
  let entry = sc.entry in
  for j = 0 to (m * (k + 1)) - 1 do
    let q = entry.(j) in
    if q < m then bits.(q) <- bits.(q) + ident_bits + label_bits.(j / (k + 1))
  done;
  let l = ref 0 in
  for p = 0 to m - 1 do
    while p >= starts.(!l + 1) do
      incr l
    done;
    let first = first_trie_child ~sigma ~k starts ~m ~l:!l p in
    let trie = ref sigma in
    for c = first to min m (first + sigma) - 1 do
      trie := !trie + label_bits.(c)
    done;
    bits.(p) <- bits.(p) + hash_bits + !trie
  done;
  { m; sigma; level_start = starts; cap; hash_seed }

let default_seed = 0x5EED

let add_storage_bits ?(seed = default_seed) ~k ~n_global g res ~members into =
  let sc = Domain.DLS.get scratch_key in
  let plan = account sc ~seed ~k ~n_global g res ~members in
  for p = 0 to plan.m - 1 do
    let v = sc.node.(p) in
    into.(v) <- into.(v) + sc.bits.(p)
  done

let build ?(seed = default_seed) ~k ~n_global g res ~members =
  let sc = Domain.DLS.get scratch_key in
  let ({ m; sigma; level_start; cap; hash_seed } : plan) = account sc ~seed ~k ~n_global g res ~members in
  (* the same nodes: [Tree.of_sssp] collects them by the same rule *)
  let tree = Tree.of_sssp g res ~members in
  let position = Array.map (fun v -> sc.pos.(v)) (Tree.nodes tree) in
  let tidx = Array.make m 0 in
  Array.iteri (fun i p -> tidx.(p) <- i) position;
  (* directory entries, in ascending identifier order as [Directory]
     takes them *)
  let by_ident = Array.init m Fun.id in
  let ident = Array.sub sc.ident 0 m in
  Array.stable_sort (fun a b -> Int.compare ident.(a) ident.(b)) by_ident;
  let e = Array.fold_left ( + ) 0 (Array.sub sc.full 0 m) in
  let slot = Array.make e 0 and ids = Array.make e 0 and target = Array.make e 0 in
  let j = ref 0 in
  Array.iter
    (fun p ->
      for l = 0 to k do
        let q = sc.entry.((p * (k + 1)) + l) in
        if q < m then begin
          slot.(!j) <- q;
          ids.(!j) <- ident.(p);
          target.(!j) <- tidx.(p);
          incr j
        end
      done)
    by_ident;
  {
    tree;
    k;
    sigma;
    cap;
    hash = Digit_hash.create ~seed:hash_seed ~sigma ~digits:k;
    hash_seed;
    order = Array.sub sc.node 0 m;
    position;
    level_start;
    name_len = Array.map (level_of_position level_start ~k) position;
    dir = Directory.build ~slots:m ~slot ~ident:ids ~target;
    bits = Array.map (fun p -> sc.bits.(p)) position;
    max_load = Array.fold_left max 0 (Array.sub sc.full 0 m);
  }

let tree t = t.tree

let sigma t = t.sigma

let directory_capacity t = t.cap

let hash_seed t = t.hash_seed

let directory t = t.dir

let position t v = t.position.(Tree.tree_index t.tree v)

let name_of t v = name_of_position ~sigma:t.sigma t.level_start ~k:t.k (position t v)

let name_digits t v = t.name_len.(Tree.tree_index t.tree v)

let append_path tree walk_rev a b =
  (* extend reversed walk (ending at a) with the tree path a -> b,
     excluding a itself *)
  match Tree.path tree a b with
  | [] -> walk_rev
  | _first :: rest -> List.rev_append rest walk_rev

let search ?trace t ~bound ident_target =
  let bound = max 1 (min bound t.k) in
  let root = Tree.root t.tree in
  let h = Digit_hash.hash t.hash ident_target in
  let m = Array.length t.order in
  let nodes = Tree.nodes t.tree in
  let rec go current walk_rev round =
    match Directory.find t.dir t.position.(Tree.tree_index t.tree current) ident_target with
    | i when i >= 0 ->
        let v = nodes.(i) in
        (match trace with
        | None -> ()
        | Some f -> f (Cr_obs.Trace.Tree_step { round; from_node = current; to_node = v }));
        let walk_rev = append_path t.tree walk_rev current v in
        { walk = List.rev walk_rev; outcome = Found v; rounds = round }
    | _ ->
        if round = bound then begin
          let walk_rev = append_path t.tree walk_rev current root in
          { walk = List.rev walk_rev; outcome = Not_found_reported; rounds = round }
        end
        else begin
          match position_of_name ~sigma:t.sigma t.level_start ~m h round with
          | Some p ->
              let next = t.order.(p) in
              (match trace with
              | None -> ()
              | Some f ->
                  f (Cr_obs.Trace.Tree_step { round; from_node = current; to_node = next }));
              let walk_rev = append_path t.tree walk_rev current next in
              go next walk_rev (round + 1)
          | None ->
              (* No node carries that name: the level is not full, so every
                 prefix-matching node fit in the directory just checked —
                 conclusively absent. *)
              let walk_rev = append_path t.tree walk_rev current root in
              { walk = List.rev walk_rev; outcome = Not_found_reported; rounds = round }
        end
  in
  go root [ root ] 1

let guaranteed_bound t vs =
  Array.fold_left
    (fun acc v ->
      match Tree.tree_index t.tree v with
      | i -> max acc (max 1 t.name_len.(i))
      | exception Not_found -> t.k)
    1 vs

let node_storage_bits (t : t) v = t.bits.(Tree.tree_index t.tree v)

let total_storage_bits (t : t) = Array.fold_left ( + ) 0 t.bits

let max_prefix_load t = t.max_load
