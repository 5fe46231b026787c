type t = {
  graph : Graph.t;
  results : Dijkstra.result array;
}

let compute g =
  let n = Graph.n g in
  { graph = g; results = Array.init n (fun s -> Dijkstra.run g s) }

module Pool = Cr_util.Domain_pool

(* [parallel_for] on a pool of its own, [domains] lanes wide, joined
   before it returns.  A worker left parked in the shared pool stops
   for every minor collection of the domain that goes on alone, which
   slows the single-domain scheme build after an APSP or a repair and
   makes its time vary with the host's scheduling. *)
let parallel_for ~domains ~chunk ~n f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> Pool.parallel_for ~chunk pool ~n f)

let width = function Some d -> max 1 d | None -> Pool.default_domains ()

let compute_parallel ?domains g =
  let n = Graph.n g in
  let domains = width domains in
  if domains <= 1 || n < 2 * domains then compute g
  else begin
    (* every placeholder slot is overwritten below.  Each Dijkstra only
       reads the immutable graph and writes its own slot, so any
       execution order yields the same array. *)
    let results = Array.make n { Dijkstra.source = -1; dist = [||]; parent = [||]; order = [||] } in
    parallel_for ~domains ~chunk:16 ~n (fun s -> results.(s) <- Dijkstra.run g s);
    { graph = g; results }
  end

let graph t = t.graph

let distance t u v = t.results.(u).dist.(v)

(* ---- incremental repair -----------------------------------------------

   Under churn, most single-edge mutations leave most sources' shortest
   paths untouched; recomputing only the affected sources is what makes
   the daemon's repair incremental.  The affectedness tests are sound
   over-approximations, and they are exact enough to preserve not just
   distances but the whole deterministic Dijkstra result:

   - parents: the heap's strict (priority, element) total order makes
     the Dijkstra settle order — and so the parent tree — a pure
     function of graph and source.  For a clean source the mutated edge
     is strictly non-tight before and after (ties are marked dirty: the
     tests below use [<=], not [<]), so it only ever inserted nodes at
     worse-than-final priorities; removing, adding, or reweighting it
     never changes which node is the current heap minimum, and the
     parent array is bit-identical too.

   A result names parent nodes, not ports, so a mutation that shifts
   port numbers leaves a clean source's result exactly right: [repair]
   shares it as it is.  A removed edge is never tight for a clean
   source, so no clean parent array can use one; [repair] checks that
   directly, since a parent edge that is gone means the dirty set
   under-approximated.

   The repair-equivalence property test (test_daemon) pins all of this
   against from-scratch recomputation. *)

let dirty_sources t mu =
  let n = Graph.n t.graph in
  let dirty = Array.make n false in
  let mark_improving u v w =
    (* sources for which the edge (u,v,w) would relax or tie; a source
       reaching neither endpoint cannot be affected (inf = inf must not
       mark every disconnected source) *)
    for s = 0 to n - 1 do
      let du = t.results.(s).dist.(u) and dv = t.results.(s).dist.(v) in
      if (du < infinity || dv < infinity) && (du +. w <= dv || dv +. w <= du) then
        dirty.(s) <- true
    done
  in
  let mark_tight u v w =
    (* sources whose shortest-path structure may use the edge (u,v,w) *)
    for s = 0 to n - 1 do
      let du = t.results.(s).dist.(u) and dv = t.results.(s).dist.(v) in
      if (du < infinity || dv < infinity) && (du +. w = dv || dv +. w = du) then
        dirty.(s) <- true
    done
  in
  (match mu with
  | Graph.Set_weight (u, v, w_new) ->
      (match Graph.edge_weight t.graph u v with
      | Some w_old ->
          mark_tight u v w_old;
          mark_improving u v w_new
      | None -> invalid_arg "Apsp.dirty_sources: setw on missing edge")
  | Graph.Link_down (u, v) -> (
      match Graph.edge_weight t.graph u v with
      | Some w_old -> mark_tight u v w_old
      | None -> invalid_arg "Apsp.dirty_sources: linkdown on missing edge")
  | Graph.Link_up (u, v, w) -> mark_improving u v w
  | Graph.Node_down u ->
      (* every source that reaches the node loses those paths *)
      for s = 0 to n - 1 do
        if t.results.(s).dist.(u) < infinity then dirty.(s) <- true
      done;
      dirty.(u) <- true
  | Graph.Node_up _ -> ());
  dirty

(* The edges [mu] removes from [g], as (u, v) pairs. *)
let removed_edges g = function
  | Graph.Link_down (u, v) -> [ (u, v) ]
  | Graph.Node_down u -> Array.to_list (Array.map (fun (v, _) -> (u, v)) (Graph.neighbors g u))
  | Graph.Set_weight _ | Graph.Link_up _ | Graph.Node_up _ -> []

(* [repair] over [g'], the graph [mu] makes of [t]'s, on [domains]
   lanes *)
let repair_on ~domains t g' mu ~dirty =
  let n = Graph.n t.graph in
  if Array.length dirty <> n then invalid_arg "Apsp.repair: dirty array length mismatch";
  let removed = removed_edges t.graph mu in
  let todo = ref [] in
  for s = n - 1 downto 0 do
    if dirty.(s) then todo := s :: !todo
    else begin
      let parent = t.results.(s).Dijkstra.parent in
      if List.exists (fun (u, v) -> parent.(u) = v || parent.(v) = u) removed then
        invalid_arg "Apsp.repair: clean source lost a parent edge"
    end
  done;
  let results = Array.copy t.results in
  let todo = Array.of_list !todo in
  let nd = Array.length todo in
  if domains <= 1 || nd < 2 * domains then
    Array.iter (fun s -> results.(s) <- Dijkstra.run g' s) todo
  else
    parallel_for ~domains ~chunk:4 ~n:nd (fun i -> results.(todo.(i)) <- Dijkstra.run g' todo.(i));
  { graph = g'; results }

let repair t mu ~dirty =
  repair_on ~domains:(Pool.default_domains ()) t (Graph.apply t.graph mu) mu ~dirty

let repair_mutation ?domains t mu =
  let g' = Graph.apply t.graph mu in
  let dirty = dirty_sources t mu in
  let count = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dirty in
  (repair_on ~domains:(width domains) t g' mu ~dirty, count)

let sssp t u = t.results.(u)

let ball t u = Ball.of_dijkstra t.results.(u)

let fold_pairs f init t =
  let n = Graph.n t.graph in
  let acc = ref init in
  for u = 0 to n - 1 do
    let dist = t.results.(u).dist in
    for v = u + 1 to n - 1 do
      acc := f !acc dist.(v)
    done
  done;
  !acc

let aspect_ratio t =
  let mx, mn =
    fold_pairs
      (fun (mx, mn) d -> if d < infinity then (max mx d, min mn d) else (mx, mn))
      (0.0, infinity) t
  in
  if mn = infinity || mn <= 0.0 then nan else mx /. mn

let diameter t =
  fold_pairs (fun acc d -> if d < infinity then max acc d else acc) 0.0 t

let connected t = fold_pairs (fun acc d -> acc && d < infinity) true t
