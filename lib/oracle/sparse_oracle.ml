(* Sparse-graph distance oracle in the Agarwal–Godfrey–Har-Peled
   style, tuned for m ≈ n: sample ~√m landmarks, store one full
   shortest-path tree per landmark plus, per node, an exact "vicinity"
   ball reaching out to its nearest landmark.  Space is
   O(n√m + Σ|vicinity|) entries against the TZ oracle's
   O(k · n^{1+1/k}); stretch drops from 2k−1 to 3, and every answer
   carries a concrete walk (tree paths on both sides).

   Vicinity entries are Witness tables, like Path_oracle's bunches —
   (dist, next hop on SPT(v)) keyed by target v — and are
   constructively closed along the tree chain for the same
   floating-point-tie reason (closure counted honestly). *)

module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Bits = Cr_util.Bits
module Rng = Cr_util.Rng
module Trace = Cr_obs.Trace

type t = {
  n : int;
  landmarks : int array; (* sorted node indexes *)
  lm_dist : float array array; (* lm_dist.(i).(v) = d(landmarks.(i), v) *)
  lm_parent : int array array; (* neighbor of v toward landmark i *)
  near : int array; (* index into landmarks of the nearest one; -1 if unreachable *)
  near_d : float array;
  vicinity : Witness.t; (* target v -> (d(u,v), hop toward v) *)
  closure_entries : int;
}

type answer = { est : float; walk : int list; via : int; exact : bool }

let build ?(seed = 41) ?landmarks apsp =
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  let m = Graph.m g in
  let count =
    match landmarks with
    | Some c ->
        if c < 1 || c > n then invalid_arg "Sparse_oracle.build: landmark count out of range";
        c
    | None -> min n (max 1 (int_of_float (ceil (sqrt (float_of_int (max 1 m))))))
  in
  let rng = Rng.create seed in
  let order = Array.init n (fun i -> i) in
  Rng.shuffle rng order;
  let landmarks = Array.sub order 0 count in
  Array.sort compare landmarks;
  let lm_dist = Array.map (fun l -> (Apsp.sssp apsp l).Dijkstra.dist) landmarks in
  let lm_parent = Array.map (fun l -> (Apsp.sssp apsp l).Dijkstra.parent) landmarks in
  let near = Array.make n (-1) in
  let near_d = Array.make n infinity in
  for u = 0 to n - 1 do
    for i = 0 to count - 1 do
      if lm_dist.(i).(u) < near_d.(u) then begin
        near_d.(u) <- lm_dist.(i).(u);
        near.(u) <- i
      end
    done
  done;
  let vicinity = Witness.create n in
  (* base vicinity: strictly closer than the nearest landmark (the
     whole component when no landmark is reachable) *)
  for v = 0 to n - 1 do
    let sv = Apsp.sssp apsp v in
    let d = sv.Dijkstra.dist in
    for u = 0 to n - 1 do
      if d.(u) < infinity && d.(u) < near_d.(u) then Witness.add vicinity sv v u
    done
  done;
  let closed = Witness.close vicinity apsp in
  { n; landmarks; lm_dist; lm_parent; near; near_d; vicinity; closure_entries = closed }

let landmark_count t = Array.length t.landmarks
let stretch_bound _ = 3.0
let closure_entries t = t.closure_entries

let size_entries t = Witness.entries t.vicinity

let storage_bits t =
  let idb = Bits.id_bits ~n:t.n in
  (* vicinity: target id + distance + next-hop id per entry; landmark
     SPTs: distance + parent id per node per landmark; per-node nearest
     landmark pointer *)
  (size_entries t * ((2 * idb) + Bits.distance_bits))
  + (landmark_count t * t.n * (idb + Bits.distance_bits))
  + (t.n * (idb + Bits.distance_bits))

let emit trace ev = match trace with None -> () | Some sink -> sink ev

(* Best landmark candidate for a pair: min over the two endpoints'
   nearest landmarks, ties to the lower landmark index. *)
let landmark_candidate t u v =
  let consider (best_d, best_i) i =
    if i < 0 then (best_d, best_i)
    else begin
      let d = t.lm_dist.(i).(u) +. t.lm_dist.(i).(v) in
      if d < best_d || (d = best_d && (best_i < 0 || i < best_i)) then (d, i)
      else (best_d, best_i)
    end
  in
  List.fold_left consider (infinity, -1) [ t.near.(u); t.near.(v) ]

let query t u v =
  let u, v = (min u v, max u v) in
  if u = v then 0.0
  else
    match Witness.find t.vicinity u v with
    | Some e -> e.Witness.dist
    | None -> (
        match Witness.find t.vicinity v u with
        | Some e -> e.Witness.dist
        | None ->
            let d, _ = landmark_candidate t u v in
            d)

(* Tree path x → … → landmark i along the stored SPT. *)
let lm_chain t i x =
  let l = t.landmarks.(i) in
  let rec go x acc steps =
    if steps > t.n then invalid_arg "Sparse_oracle: cyclic landmark chain";
    if x = l then List.rev (l :: acc) else go t.lm_parent.(i).(x) (x :: acc) (steps + 1)
  in
  go x [] 0

let path ?trace t u v =
  if u = v then Some { est = 0.0; walk = [ u ]; via = u; exact = true }
  else begin
    let cu, cv = (min u v, max u v) in
    let oriented walk = if u = cu then walk else List.rev walk in
    match Witness.find t.vicinity cu cv with
    | Some e ->
        let w = Witness.chain t.vicinity cu cv in
        emit trace (Trace.Stitch { via = cv; up_hops = List.length w - 1; down_hops = 0 });
        Some { est = e.Witness.dist; walk = oriented w; via = cv; exact = true }
    | None -> (
        match Witness.find t.vicinity cv cu with
        | Some e ->
            let w = List.rev (Witness.chain t.vicinity cv cu) in
            emit trace (Trace.Stitch { via = cu; up_hops = 0; down_hops = List.length w - 1 });
            Some { est = e.Witness.dist; walk = oriented w; via = cu; exact = true }
        | None ->
            let d, i = landmark_candidate t cu cv in
            if i < 0 || d = infinity then None
            else begin
              let up = lm_chain t i cu in
              let down = lm_chain t i cv in
              emit trace
                (Trace.Stitch
                   {
                     via = t.landmarks.(i);
                     up_hops = List.length up - 1;
                     down_hops = List.length down - 1;
                   });
              let w = up @ List.tl (List.rev down) in
              Some { est = d; walk = oriented w; via = t.landmarks.(i); exact = false }
            end)
  end
