type result = {
  source : int;
  dist : float array;
  parent : int array;
  order : int array;
}

(* The arrays a search works in.  A search starts by resetting [dist]
   and [parent] only where the previous one reached (the [settled]
   prefix), so it costs time in proportion to what it reaches; the
   capacity may exceed the graph searched. *)
type work = {
  w_dist : float array;
  w_parent : int array;
  heap : Heap.t;
  settled : int array; (* the current search's nodes, in settle order *)
  mutable count : int;
}

type scratch = { graph : Graph.t; work : work }

let work n =
  let w_dist = Array.make n infinity in
  {
    w_dist;
    w_parent = Array.make n (-1);
    heap = Heap.create w_dist;
    settled = Array.make (max n 1) 0;
    count = 0;
  }

let scratch g = { graph = g; work = work (Graph.n g) }

(* Dijkstra settles nodes in nondecreasing distance, and the heap's
   (priority, element) order breaks ties by index.  The settle order
   differs from (distance, index) order only where a node enters the
   heap after an equal-distance node with a larger index was settled: a
   relaxation of zero length, which rounding produces when [du +. w = du]
   at extreme aspect ratios.  One pass detects that case, and only then
   is the order sorted. *)
let sort_by_distance dist order =
  let len = Array.length order in
  let in_order a b = dist.(a) < dist.(b) || (dist.(a) = dist.(b) && a < b) in
  let j = ref 1 in
  while !j < len && in_order order.(!j - 1) order.(!j) do
    incr j
  done;
  if !j < len then
    Array.stable_sort
      (fun a b -> match Float.compare dist.(a) dist.(b) with 0 -> Int.compare a b | c -> c)
      order

let all _ = true

(* One search from [s] over [g] in [wk], whose capacity is at least
   [Graph.n g]: afterwards [wk.w_dist], [wk.w_parent] and the first
   [wk.count] entries of [wk.settled] hold the result. *)
let search wk g ~allowed ~max_edge ~bound s =
  let n = Graph.n g in
  if s < 0 || s >= n then invalid_arg "Dijkstra: source out of range";
  if not (allowed s) then invalid_arg "Dijkstra: source not allowed";
  let dist = wk.w_dist and parent = wk.w_parent in
  let heap = wk.heap and settled = wk.settled in
  (* forget the previous search: the nodes it settled, and any it left
     in the heap if it was cut short by an exception *)
  for j = 0 to wk.count - 1 do
    let v = settled.(j) in
    dist.(v) <- infinity;
    parent.(v) <- -1
  done;
  while not (Heap.is_empty heap) do
    let v = Heap.pop_min heap in
    dist.(v) <- infinity;
    parent.(v) <- -1
  done;
  wk.count <- 0;
  dist.(s) <- 0.0;
  Heap.insert heap s;
  while not (Heap.is_empty heap) do
    let u = Heap.pop_min heap in
    let du = dist.(u) in
    settled.(wk.count) <- u;
    wk.count <- wk.count + 1;
    (* No equal-distance parent rewriting: with extreme aspect ratios,
       floating-point rounding can make [du +. w = du], and a
       lexicographic tie-break would then create parent cycles.  The
       heap's strict (priority, element) total order already makes the
       settle order — and so the tree — a pure function of the graph
       and source, independent of relaxation history; [Apsp.repair]
       relies on that to share clean sources' results bit-identically
       across mutations that cannot affect them.  A settled node needs
       no test of its own: its distance is at most [du], so [dv] never
       improves on it. *)
    let adj = Graph.neighbors g u in
    for j = 0 to Array.length adj - 1 do
      let v, w = adj.(j) in
      if allowed v && w <= max_edge then begin
        let dv = du +. w in
        if dv <= bound && dv < dist.(v) then begin
          dist.(v) <- dv;
          parent.(v) <- u;
          Heap.insert_or_decrease heap v
        end
      end
    done
  done

let settle_order w dist =
  let order = Array.sub w.settled 0 w.count in
  sort_by_distance dist order;
  order

let run_in sc ?(allowed = all) ?(max_edge = infinity) ?(bound = infinity) s =
  let w = sc.work in
  search w sc.graph ~allowed ~max_edge ~bound s;
  { source = s; dist = w.w_dist; parent = w.w_parent; order = settle_order w w.w_dist }

(* One work set per domain, grown to the largest graph it has searched.
   A run keeps only fresh copies of [dist], [parent] and the order, so
   an APSP's n runs leave no heap or settle arrays behind. *)
let domain_work = Domain.DLS.new_key (fun () -> work 0)

let run_fresh g ?(allowed = all) ?(max_edge = infinity) ?(bound = infinity) s =
  let n = Graph.n g in
  let w =
    let w = Domain.DLS.get domain_work in
    if Array.length w.w_dist >= n then w
    else begin
      let w = work n in
      Domain.DLS.set domain_work w;
      w
    end
  in
  search w g ~allowed ~max_edge ~bound s;
  let dist = Array.sub w.w_dist 0 n in
  { source = s; dist; parent = Array.sub w.w_parent 0 n; order = settle_order w dist }

let run g s = run_fresh g s

let run_bounded g s r = run_fresh g ~bound:r s

let run_restricted g ~allowed ?max_edge ?bound s = run_fresh g ~allowed ?max_edge ?bound s

let path_to res t =
  if res.dist.(t) = infinity then raise Not_found;
  let rec up v acc = if v = res.source then v :: acc else up res.parent.(v) (v :: acc) in
  up t []

let bellman_ford g s =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  dist.(s) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    Graph.iter_edges g (fun u v w ->
        if dist.(u) +. w < dist.(v) then begin
          dist.(v) <- dist.(u) +. w;
          changed := true
        end;
        if dist.(v) +. w < dist.(u) then begin
          dist.(u) <- dist.(v) +. w;
          changed := true
        end)
  done;
  dist

let eccentricity res =
  Array.fold_left (fun acc d -> if d < infinity && d > acc then d else acc) 0.0 res.dist
