(* Path-reporting Thorup–Zwick oracle.

   Built on Compact_routing.Tz_hierarchy, the one hierarchy the TZ
   comparators share, with Distance_oracle's sequential level sampler:
   for a given seed the two oracles have the same levels and pivots.
   Every bunch entry (u, w) additionally stores a witness: the
   neighbor of u on the shortest-path tree of w, i.e.
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
module Trace = Cr_obs.Trace
module Tz = Compact_routing.Tz_hierarchy

type t = {
  h : Tz.t;
  bunches : Witness.t; (* witness w -> (d(u,w), hop toward w) *)
  closure_entries : int;
}

type answer = { est : float; walk : int list; via : int; levels : int }

let build ?(k = 3) ?(seed = 31) apsp =
  let h = Tz.build Sequential ~k ~seed apsp in
  let n = Graph.n (Apsp.graph apsp) in
  (* read d(u, w) from w's row, the tree the witness comes from *)
  let bunches = Witness.create n in
  for w = 0 to n - 1 do
    let sw = Apsp.sssp apsp w in
    for u = 0 to n - 1 do
      if Tz.in_bunch h u w sw.Dijkstra.dist u then Witness.add bunches sw w u
    done
  done;
  (* constructive closure: base bunch entries, then pivot chains *)
  let closed = ref (Witness.close bunches apsp) in
  for u = 0 to n - 1 do
    for j = 0 to k - 1 do
      let w = h.Tz.pivots.(u).(j) in
      if w >= 0 then closed := !closed + Witness.close_chain bunches (Apsp.sssp apsp w) w u
    done
  done;
  { h; bunches; closure_entries = !closed }

let k t = t.h.Tz.k
let stretch_bound t = float_of_int ((2 * k t) - 1)
let closure_entries t = t.closure_entries

let size_entries t = Witness.entries t.bunches

let node_entries t u = Witness.node_entries t.bunches u

let storage_bits t =
  let n = Array.length t.h.Tz.level in
  let idb = Bits.id_bits ~n in
  (* bunch: witness id + exact distance + next-hop id; pivot tables:
     k ids + k distances per node *)
  (size_entries t * ((2 * idb) + Bits.distance_bits)) + (n * k t * (idb + Bits.distance_bits))

let emit trace ev = match trace with None -> () | Some sink -> sink ev

(* The alternating walk from the canonical (min, max) ordering (the raw
   alternation is not symmetric — see Distance_oracle.query).  Returns
   the termination state: active endpoint x whose level-j pivot w landed
   in the other endpoint's bunch, with both half-distances. *)
let alternate ?trace t u v =
  let { Tz.k; pivots; pivot_dist; _ } = t.h in
  let rec walk j x y w dxw =
    match Witness.find t.bunches y w with
    | Some e ->
        emit trace (Trace.Bunch_probe { level = j; active = x; witness = w; hit = true });
        Some (x, y, j, w, dxw, e)
    | None ->
        emit trace (Trace.Bunch_probe { level = j; active = x; witness = w; hit = false });
        let j = j + 1 in
        if j >= k then None
        else begin
          let w' = pivots.(y).(j) in
          if w' < 0 then None else walk j y x w' pivot_dist.(y).(j)
        end
  in
  let w0 = pivots.(u).(0) in
  if w0 < 0 then None else walk 0 u v w0 pivot_dist.(u).(0)

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
