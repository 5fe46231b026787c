module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Rng = Cr_util.Rng

type sampling = Sequential | Node_indexed

type t = {
  k : int;
  level : int array;
  pivots : int array array;
  pivot_dist : float array array;
}

let levels sampling ~seed ~n ~k =
  let p = float_of_int n ** (-1.0 /. float_of_int k) in
  let climb rng =
    let rec go j = if j < k - 1 && Rng.bernoulli rng p then go (j + 1) else j in
    go 0
  in
  (* [Array.init] applies its function in index order *)
  let level =
    match sampling with
    | Sequential ->
        let rng = Rng.create seed in
        Array.init n (fun _ -> climb rng)
    | Node_indexed -> Array.init n (fun v -> climb (Rng.create (seed + (v * 7919))))
  in
  if k > 1 && not (Array.exists (fun l -> l = k - 1) level) then level.(0) <- k - 1;
  level

let build sampling ~k ~seed apsp =
  if k < 1 then invalid_arg "Tz_hierarchy.build: k < 1";
  let n = Graph.n (Apsp.graph apsp) in
  let level = levels sampling ~seed ~n ~k in
  let pivots = Array.make_matrix n k (-1) in
  let pivot_dist = Array.make_matrix n k infinity in
  for u = 0 to n - 1 do
    (* the levels are nested, so p_0(u), p_1(u), … sit ever later in
       u's order and one scan fills them in turn *)
    let { Dijkstra.dist; order; _ } = Apsp.sssp apsp u in
    let j = ref 0 and i = ref 0 in
    while !j < k && !i < Array.length order do
      let v = order.(!i) in
      while !j <= level.(v) do
        pivots.(u).(!j) <- v;
        pivot_dist.(u).(!j) <- dist.(v);
        incr j
      done;
      incr i
    done
  done;
  { k; level; pivots; pivot_dist }

(* the distance is read here, not passed in: a float argument to
   another module's function is boxed on every call *)
let in_bunch t u w (row : float array) i =
  let j = t.level.(w) + 1 in
  row.(i) < if j >= t.k then infinity else t.pivot_dist.(u).(j)
