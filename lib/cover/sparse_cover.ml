module Graph = Cr_graph.Graph
module Dijkstra = Cr_graph.Dijkstra
module Apsp = Cr_graph.Apsp
module Ball = Cr_graph.Ball
module Tree = Cr_tree.Tree
module Bits = Cr_util.Bits

type cluster = { center : int; members : int array; tree : Tree.t }

type t = {
  graph : Graph.t;
  allowed : bool array;
  rho : float;
  clusters : cluster array;
  home : int array; (* node -> covering cluster index, -1 if not allowed *)
}

let ball_of g allowed rho u =
  (Dijkstra.run_restricted g ~allowed:(fun v -> allowed.(v)) ~bound:rho u).Dijkstra.order

(* Awerbuch–Peleg ball coarsening, organized in phases so that clusters
   created within one phase are pairwise disjoint: a node then belongs to
   at most (#phases) clusters, which is what keeps the cover sparse.

   Within a phase, a cluster starts from the first uncovered eligible
   center's rho-ball and absorbs, round by round, the balls of the other
   uncovered eligible centers that intersect it.  Every round but the
   last multiplies the cluster size by more than n^{1/k}, so there are at
   most k rounds and the radius stays below (2k+1) rho.  Absorbed balls
   are covered; balls that merely touch the cluster become ineligible for
   the rest of the phase and try again in the next one.

   The work is bounded by the balls themselves.  Ball membership is
   symmetric (u's ball holds x iff x's ball holds u), so x's own ball
   lists the centers whose balls contain x: a round looks only at the
   balls that meet the nodes the previous round added (a ball meeting
   older nodes was absorbed then), and a finished cluster blocks exactly
   the balls that meet it.  Eligibility only shrinks within a phase, so
   the search for the next center resumes where the last one stopped. *)
let build ?apsp ?allowed ~k ~rho g =
  if k < 1 then invalid_arg "Sparse_cover.build: k < 1";
  if not (rho > 0.0) then invalid_arg "Sparse_cover.build: rho <= 0";
  let n = Graph.n g in
  let allowed =
    match allowed with
    | None -> Array.make n true
    | Some p -> Array.init n p
  in
  let kappa =
    float_of_int (max 2 (Bits.ceil_pow (float_of_int (max 2 n)) (1.0 /. float_of_int k)))
  in
  let sc = Dijkstra.scratch g in
  (* u's rho-ball is the first [ball_len.(u)] nodes of [balls.(u)], the
     order of a search from u, sized before the next search reuses the
     scratch.  With nothing excluded, that search is one [apsp] already
     holds, so the ball is shared, not copied. *)
  let search =
    match apsp with
    | Some a when Array.for_all Fun.id allowed -> Apsp.sssp a
    | _ -> fun u -> Dijkstra.run_in sc ~allowed:(fun v -> allowed.(v)) ~bound:rho u
  in
  let balls = Array.make n [||] and ball_len = Array.make n 0 in
  for u = 0 to n - 1 do
    if allowed.(u) then begin
      let res = search u in
      balls.(u) <- res.Dijkstra.order;
      ball_len.(u) <- Ball.ball_size (Ball.of_dijkstra res) rho
    end
  done;
  let covered = Array.make n false in
  let home = Array.make n (-1) in
  let clusters = ref [] in
  let n_clusters = ref 0 in
  let in_y = Array.make n false in
  (* [blocked.(u) = phase]: u's ball meets a cluster of this phase;
     [merged.(u) = cluster]: u's ball is absorbed by the cluster *)
  let blocked = Array.make n (-1) and merged = Array.make n (-1) in
  let uncovered_left = ref 0 in
  for u = 0 to n - 1 do
    if allowed.(u) then incr uncovered_left
  done;
  let phase = ref 0 in
  while !uncovered_left > 0 do
    let eligible u = allowed.(u) && (not covered.(u)) && blocked.(u) <> !phase in
    let cursor = ref 0 in
    let progress = ref true in
    while !progress do
      while !cursor < n && not (eligible !cursor) do
        incr cursor
      done;
      if !cursor >= n then progress := false
      else begin
        let v = !cursor in
        let ci = !n_clusters in
        let members = ref [] in
        let size = ref 0 in
        (* adds u's ball to Y; returns the nodes it added *)
        let absorb u added =
          let added = ref added in
          for i = 0 to ball_len.(u) - 1 do
            let x = balls.(u).(i) in
            if not in_y.(x) then begin
              in_y.(x) <- true;
              added := x :: !added
            end
          done;
          !added
        in
        let frontier = ref (absorb v []) in
        size := List.length !frontier;
        members := !frontier;
        merged.(v) <- ci;
        let absorbed = ref [ v ] in
        (* Expansion rounds: absorb every eligible uncovered ball touching
           the current union.  Rounds that more-than-kappa-multiply the
           size keep going; the first non-multiplying round is still
           committed (the cluster must contain the balls that intersect
           its kernel — that is what makes coverage per cluster large
           enough for sparsity) and ends the growth. *)
        let continue_growing = ref true in
        while !continue_growing do
          let prev_size = !size in
          let layer = ref [] in
          List.iter
            (fun x ->
              for i = 0 to ball_len.(x) - 1 do
                let u = balls.(x).(i) in
                if merged.(u) <> ci && eligible u then begin
                  merged.(u) <- ci;
                  layer := u :: !layer
                end
              done)
            !frontier;
          if !layer = [] then continue_growing := false
          else begin
            let added = List.fold_left (fun added u -> absorb u added) [] !layer in
            let new_size = prev_size + List.length added in
            size := new_size;
            members := List.rev_append added !members;
            absorbed := List.rev_append !layer !absorbed;
            frontier := added;
            if float_of_int new_size <= kappa *. float_of_int prev_size then
              continue_growing := false
          end
        done;
        let member_arr = Array.of_list !members in
        Array.stable_sort Int.compare member_arr;
        let cover u =
          if not covered.(u) then begin
            covered.(u) <- true;
            home.(u) <- ci;
            decr uncovered_left
          end
        in
        List.iter cover !absorbed;
        (* opportunistically cover any center whose ball fits entirely
           inside the cluster *)
        let rec fits u i = i = ball_len.(u) || (in_y.(balls.(u).(i)) && fits u (i + 1)) in
        Array.iter
          (fun u -> if allowed.(u) && (not covered.(u)) && fits u 0 then cover u)
          member_arr;
        (* spanning tree: SPT from v inside the cluster, edges <= 2 rho *)
        let res =
          Dijkstra.run_in sc ~allowed:(fun x -> in_y.(x)) ~max_edge:(2.0 *. rho) v
        in
        let tree = Tree.of_sssp g res ~members:member_arr in
        Array.iter
          (fun x ->
            if not (Tree.mem tree x) then
              invalid_arg "Sparse_cover.build: cluster disconnected under 2*rho edge filter")
          member_arr;
        clusters := { center = v; members = member_arr; tree } :: !clusters;
        incr n_clusters;
        Array.iter
          (fun x ->
            in_y.(x) <- false;
            for i = 0 to ball_len.(x) - 1 do
              blocked.(balls.(x).(i)) <- !phase
            done)
          member_arr
      end
    done;
    incr phase
  done;
  { graph = g; allowed; rho; clusters = Array.of_list (List.rev !clusters); home }

let clusters t = t.clusters

let home t v =
  if v < 0 || v >= Array.length t.home || t.home.(v) < 0 then
    invalid_arg "Sparse_cover.home: node not in cover universe"
  else t.home.(v)

let max_overlap t =
  let count = Array.make (Graph.n t.graph) 0 in
  Array.iter (fun c -> Array.iter (fun x -> count.(x) <- count.(x) + 1) c.members) t.clusters;
  Array.fold_left max 0 count

let max_radius t =
  Array.fold_left (fun acc c -> max acc (Tree.radius c.tree)) 0.0 t.clusters

let max_tree_edge t =
  Array.fold_left (fun acc c -> max acc (Tree.max_edge c.tree)) 0.0 t.clusters

let check_cover t =
  let ok = ref true in
  let n = Graph.n t.graph in
  for u = 0 to n - 1 do
    if t.allowed.(u) then begin
      let ball = ball_of t.graph t.allowed t.rho u in
      let c = t.clusters.(t.home.(u)) in
      let member = Hashtbl.create (Array.length c.members) in
      Array.iter (fun x -> Hashtbl.replace member x ()) c.members;
      Array.iter (fun x -> if not (Hashtbl.mem member x) then ok := false) ball
    end
  done;
  !ok
