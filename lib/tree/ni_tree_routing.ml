module Bits = Cr_util.Bits
module Digit_hash = Cr_util.Digit_hash
module Graph = Cr_graph.Graph

type outcome = Found of int | Not_found_reported

type search_result = { walk : int list; outcome : outcome; rounds : int }

(* What every hash seed's attempt shares: the tree's nodes by position
   ([tidx] their tree index, [order] their graph id, [idents] their
   network identifier), [position] from tree index back to position,
   [by_ident] the positions in ascending identifier order, and the
   level starts. *)
type layout = {
  tidx : int array;
  order : int array;
  position : int array;
  idents : int array;
  by_ident : int array;
  level_start : int array;
}

type t = {
  tree : Tree.t;
  labels : Tree_labels.t;
  k : int;
  sigma : int;
  cap : int;
  hash : Digit_hash.t;
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

let ident tree v = Graph.name_of (Tree.graph tree) v

let sigma_for ~n_global ~k =
  max 2 (Bits.ceil_pow (float_of_int (max 2 n_global)) (1.0 /. float_of_int k))

(* Number of assigned trie children of the node at position p, and the
   position of the first. *)
let trie_children ~sigma ~k starts ~m p =
  let l = level_of_position starts ~k p in
  if l >= k then (0, 0)
  else begin
    let first_child = starts.(l + 1) + ((p - starts.(l)) * sigma) in
    if first_child >= m then (0, 0) else (min sigma (m - first_child), first_child)
  end

let try_build ~seed ~k ~n_global ~cap tree labels (lay : layout) =
  let m = Array.length lay.order in
  let level_start = lay.level_start in
  let sigma = sigma_for ~n_global ~k in
  let hash = Digit_hash.create ~seed ~sigma ~digits:k in
  let name_len = Array.make m 0 in
  Array.iteri (fun p i -> name_len.(i) <- level_of_position level_start ~k p) lay.tidx;
  (* prefix.((p * (k + 1)) + l): the position named by the first l hash
     digits of the identifier at position p, or m if unassigned *)
  let prefix = Array.make (m * (k + 1)) m in
  for p = 0 to m - 1 do
    let v = ref 0 in
    for l = 0 to k do
      if l > 0 then v := (!v * sigma) + Digit_hash.digit hash lay.idents.(p) (l - 1);
      let q = level_start.(l) + !v in
      if q < m then prefix.((p * (k + 1)) + l) <- q
    done
  done;
  (* Directory of each named node: the [cap] prefix-matching nodes closest
     to the root.  Scanning nodes in distance order and offering each to
     the directories of all its hash-prefix names admits the closest ones
     in a single pass. *)
  let full = Array.make m 0 in
  let admitted = Array.make (m * (k + 1)) false in
  for j = 0 to (m * (k + 1)) - 1 do
    let q = prefix.(j) in
    if q < m && full.(q) < cap then begin
      full.(q) <- full.(q) + 1;
      admitted.(j) <- true
    end
  done;
  let e = Array.fold_left ( + ) 0 full in
  let slot = Array.make e 0 and ident = Array.make e 0 and target = Array.make e 0 in
  let j = ref 0 in
  Array.iter
    (fun p ->
      for l = 0 to k do
        if admitted.((p * (k + 1)) + l) then begin
          slot.(!j) <- prefix.((p * (k + 1)) + l);
          ident.(!j) <- lay.idents.(p);
          target.(!j) <- lay.tidx.(p);
          incr j
        end
      done)
    lay.by_ident;
  let dir = Directory.build ~slots:m ~slot ~ident ~target in
  let max_load = Array.fold_left max 0 full in
  (* Validate the Lemma-4 delivery precondition: every node v with name
     length l is present in the directory of the node named by the first
     max(0, l-1) hash digits of v's identifier (for l = 0, the root must
     know itself). *)
  let ok = ref true in
  for p = 0 to m - 1 do
    let pref_len = max 0 (name_len.(lay.tidx.(p)) - 1) in
    let q = prefix.((p * (k + 1)) + pref_len) in
    if q >= m || Directory.find dir q lay.idents.(p) <> lay.tidx.(p) then ok := false
  done;
  if !ok then begin
    (* Bits stored at each node, once: hash function, own routing info,
       trie children (presence bitmap over sigma slots plus one label
       each), and directory entries (identifier plus label each). *)
    let n = Graph.n (Tree.graph tree) in
    let ident_bits = 2 * Bits.id_bits ~n in
    let hash_bits = Digit_hash.storage_bits ~n in
    let bits = Array.make m 0 in
    for p = 0 to m - 1 do
      let i = lay.tidx.(p) in
      let cc, first_child = trie_children ~sigma ~k level_start ~m p in
      let trie_bits = ref sigma in
      for c = first_child to first_child + cc - 1 do
        trie_bits := !trie_bits + Tree_labels.label_bits_at labels lay.tidx.(c)
      done;
      let dir_bits =
        Directory.fold_targets dir p
          (fun acc u -> acc + ident_bits + Tree_labels.label_bits_at labels u)
          0
      in
      bits.(i) <- hash_bits + Tree_labels.node_storage_bits_at labels i + !trie_bits + dir_bits
    done;
    Some
      {
        tree;
        labels;
        k;
        sigma;
        cap;
        hash;
        order = lay.order;
        position = lay.position;
        level_start;
        name_len;
        dir;
        bits;
        max_load;
      }
  end
  else None

let build ?(seed = 0x5EED) ~k ~n_global tree =
  if k < 1 then invalid_arg "Ni_tree_routing.build: k < 1";
  let labels = Tree_labels.build tree in
  let tidx = Tree.by_root_distance_at tree in
  let m = Array.length tidx in
  let order = Array.map (fun i -> (Tree.nodes tree).(i)) tidx in
  let position = Array.make m 0 in
  Array.iteri (fun p i -> position.(i) <- p) tidx;
  let idents = Array.map (ident tree) order in
  let by_ident = Array.init m Fun.id in
  Array.stable_sort (fun a b -> Int.compare idents.(a) idents.(b)) by_ident;
  let sigma = sigma_for ~n_global ~k in
  let lay =
    { tidx; order; position; idents; by_ident; level_start = compute_level_starts ~sigma ~k m }
  in
  let base_cap = max 1 (sigma * Bits.bits_for (max 2 n_global)) in
  (* Re-seed on (vanishingly rare) hash overload; double the directory
     capacity if 64 seeds all fail — a constructive version of the
     with-high-probability argument. *)
  let rec attempt cap tries =
    let rec seeds i =
      if i >= 64 then None
      else
        match try_build ~seed:(seed + (tries * 64) + i) ~k ~n_global ~cap tree labels lay with
        | Some t -> Some t
        | None -> seeds (i + 1)
    in
    match seeds 0 with
    | Some t -> t
    | None ->
        if cap >= m then failwith "Ni_tree_routing.build: cannot satisfy directory invariant"
        else attempt (min (2 * cap) m) (tries + 1)
  in
  attempt (min base_cap m) 0

let tree t = t.tree

let sigma t = t.sigma

let directory_capacity t = t.cap

let name_of t v =
  let p = t.position.(Tree.tree_index t.tree v) in
  name_of_position ~sigma:t.sigma t.level_start ~k:t.k p

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

let node_storage_bits t v = t.bits.(Tree.tree_index t.tree v)

let total_storage_bits t = Array.fold_left ( + ) 0 t.bits

let max_prefix_load t = t.max_load
