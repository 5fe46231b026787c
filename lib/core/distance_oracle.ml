module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Bits = Cr_util.Bits

type t = {
  h : Tz_hierarchy.t;
  bunches : (int, float) Hashtbl.t array; (* bunch member -> exact distance *)
}

let build ?(k = 3) ?(seed = 31) apsp =
  let h = Tz_hierarchy.build Sequential ~k ~seed apsp in
  let n = Graph.n (Apsp.graph apsp) in
  let bunches =
    Array.init n (fun u ->
        let d = (Apsp.sssp apsp u).Dijkstra.dist in
        let b = Hashtbl.create 16 in
        for w = 0 to n - 1 do
          if Tz_hierarchy.in_bunch h u w d w then Hashtbl.replace b w d.(w)
        done;
        b)
  in
  { h; bunches }

let k t = t.h.Tz_hierarchy.k

(* The classic alternating query: find the smallest level j such that the
   pivot of the "active" endpoint lands in the other's bunch.  The walk
   is run from the canonical (min, max) ordering of the endpoints: the
   raw alternation is not symmetric (u ∈ B(v) does not imply v ∈ B(u),
   so starting from the other side can terminate at a different level),
   and a distance estimate should not depend on who asks. *)
let query t u v =
  let u, v = (min u v, max u v) in
  if u = v then 0.0
  else begin
    let { Tz_hierarchy.k; pivots; pivot_dist; _ } = t.h in
    let rec walk j u v w du_w =
      (* invariant: w = p_j(u), du_w = d(u, w) *)
      match Hashtbl.find_opt t.bunches.(v) w with
      | Some dv_w -> du_w +. dv_w
      | None ->
          let j = j + 1 in
          if j >= k then infinity
          else begin
            (* swap roles *)
            let w' = pivots.(v).(j) in
            if w' < 0 then infinity else walk j v u w' pivot_dist.(v).(j)
          end
    in
    let w0 = pivots.(u).(0) in
    if w0 < 0 then infinity else walk 0 u v w0 pivot_dist.(u).(0)
  end

let stretch_bound t = float_of_int ((2 * k t) - 1)

let size_entries t = Array.fold_left (fun acc b -> acc + Hashtbl.length b) 0 t.bunches

let storage_bits t =
  let idb = Bits.id_bits ~n:(Array.length t.bunches) in
  size_entries t * (idb + Bits.distance_bits)
