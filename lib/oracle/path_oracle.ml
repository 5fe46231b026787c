(* Path-reporting Thorup–Zwick oracle.

   Same sampled hierarchy / pivot / bunch skeleton as
   Compact_routing.Distance_oracle (identical level sampling and pivot
   tie-breaks, so the two structures agree on the hierarchy for a given
   seed), but every bunch entry (u, w) additionally stores a witness:
   the neighbor of u on the shortest-path tree of w, i.e.
   (Apsp.sssp w).parent.(u).  A query then not only returns the
   estimate d(u,w) + d(w,v) but can *stitch* the concrete walk
   u → … → w → … → v by following witness pointers up both trees.

   Cluster closure.  Stitching needs the chain invariant of Witness:
   analytically it holds for bunches under a tie-inclusive membership
   test, but floating-point distance sums can break it by an ulp (the
   triangle equality d(x,w) = d(x,u') + d(u',w) is exact over reals,
   not over doubles).  So the build closes the chain of every base
   bunch entry and of every pivot pair (u, p_j(u)), and the extra
   entries are counted honestly in size_entries/storage_bits
   (closure_entries reports how many the closure added). *)

module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Bits = Cr_util.Bits
module Rng = Cr_util.Rng
module Trace = Cr_obs.Trace

type t = {
  k : int;
  n : int;
  pivots : int array array; (* pivots.(u).(j): closest A_j node, -1 if none *)
  pivot_dist : float array array;
  bunches : Witness.t; (* witness w -> (d(u,w), hop toward w) *)
  closure_entries : int;
}

type answer = { est : float; walk : int list; via : int; levels : int }

let build ?(k = 3) ?(seed = 31) apsp =
  if k < 1 then invalid_arg "Path_oracle.build: k < 1";
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  let rng = Rng.create seed in
  let p = float_of_int n ** (-1.0 /. float_of_int k) in
  let level = Array.make n 0 in
  for v = 0 to n - 1 do
    let rec climb j = if j < k - 1 && Rng.bernoulli rng p then climb (j + 1) else j in
    level.(v) <- climb 0
  done;
  if k > 1 && not (Array.exists (fun l -> l = k - 1) level) then level.(0) <- k - 1;
  let pivots = Array.make_matrix n k (-1) in
  let pivot_dist = Array.make_matrix n k infinity in
  for u = 0 to n - 1 do
    let d = (Apsp.sssp apsp u).Dijkstra.dist in
    for v = 0 to n - 1 do
      if d.(v) < infinity then
        for j = 0 to level.(v) do
          if
            d.(v) < pivot_dist.(u).(j)
            || (d.(v) = pivot_dist.(u).(j) && (pivots.(u).(j) = -1 || v < pivots.(u).(j)))
          then begin
            pivot_dist.(u).(j) <- d.(v);
            pivots.(u).(j) <- v
          end
        done
    done
  done;
  let bunches = Witness.create n in
  for w = 0 to n - 1 do
    let sw = Apsp.sssp apsp w in
    let d = sw.Dijkstra.dist in
    let j = level.(w) in
    for u = 0 to n - 1 do
      if d.(u) < infinity then begin
        let next_pivot_d = if j + 1 >= k then infinity else pivot_dist.(u).(j + 1) in
        if d.(u) < next_pivot_d then Witness.add bunches sw w u
      end
    done
  done;
  (* constructive closure: base bunch entries, then pivot chains *)
  let closed = ref (Witness.close bunches apsp) in
  for u = 0 to n - 1 do
    for j = 0 to k - 1 do
      let w = pivots.(u).(j) in
      if w >= 0 then closed := !closed + Witness.close_chain bunches (Apsp.sssp apsp w) w u
    done
  done;
  { k; n; pivots; pivot_dist; bunches; closure_entries = !closed }

let k t = t.k
let stretch_bound t = float_of_int ((2 * t.k) - 1)
let closure_entries t = t.closure_entries

let size_entries t = Witness.entries t.bunches

let node_entries t u = Witness.node_entries t.bunches u

let storage_bits t =
  let idb = Bits.id_bits ~n:t.n in
  (* bunch: witness id + exact distance + next-hop id; pivot tables:
     k ids + k distances per node *)
  (size_entries t * ((2 * idb) + Bits.distance_bits))
  + (t.n * t.k * (idb + Bits.distance_bits))

let emit trace ev = match trace with None -> () | Some sink -> sink ev

(* The alternating walk from the canonical (min, max) ordering (the raw
   alternation is not symmetric — see Distance_oracle.query).  Returns
   the termination state: active endpoint x whose level-j pivot w landed
   in the other endpoint's bunch, with both half-distances. *)
let alternate ?trace t u v =
  let rec walk j x y w dxw =
    match Witness.find t.bunches y w with
    | Some e ->
        emit trace (Trace.Bunch_probe { level = j; active = x; witness = w; hit = true });
        Some (x, y, j, w, dxw, e)
    | None ->
        emit trace (Trace.Bunch_probe { level = j; active = x; witness = w; hit = false });
        let j = j + 1 in
        if j >= t.k then None
        else begin
          let w' = t.pivots.(y).(j) in
          if w' < 0 then None else walk j y x w' t.pivot_dist.(y).(j)
        end
  in
  let w0 = t.pivots.(u).(0) in
  if w0 < 0 then None else walk 0 u v w0 t.pivot_dist.(u).(0)

let query ?trace t u v =
  let u, v = (min u v, max u v) in
  if u = v then 0.0
  else
    match alternate ?trace t u v with
    | None -> infinity
    | Some (_, _, _, _, dxw, e) -> dxw +. e.Witness.dist

let path ?trace t u v =
  if u = v then Some { est = 0.0; walk = [ u ]; via = u; levels = 0 }
  else begin
    let cu, cv = (min u v, max u v) in
    match alternate ?trace t cu cv with
    | None -> None
    | Some (x, y, j, w, dxw, e) ->
        let up = Witness.chain t.bunches x w in
        let down = Witness.chain t.bunches y w in
        emit trace
          (Trace.Stitch { via = w; up_hops = List.length up - 1; down_hops = List.length down - 1 });
        (* up ends at w, down starts from y and ends at w: glue into
           x → … → w → … → y, then orient from u *)
        let x_to_y = up @ List.tl (List.rev down) in
        let canon = if x = cu then x_to_y else List.rev x_to_y in
        let walk = if u = cu then canon else List.rev canon in
        Some { est = dxw +. e.Witness.dist; walk; via = w; levels = j + 1 }
  end
