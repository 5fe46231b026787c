module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Tree = Cr_tree.Tree
module Dense = Cr_tree.Dense_tree_routing

(* Root at an approximate center: the node minimizing eccentricity. *)
let pick_center apsp n =
  let best = ref 0 and best_ecc = ref infinity in
  for v = 0 to n - 1 do
    let e = Dijkstra.eccentricity (Apsp.sssp apsp v) in
    if e < !best_ecc then begin
      best := v;
      best_ecc := e
    end
  done;
  !best

let build apsp =
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  let center = pick_center apsp n in
  let res = Apsp.sssp apsp center in
  let tree = Tree.of_sssp g res ~members:res.Dijkstra.order in
  let rt = Dense.build tree in
  let storage = Storage.create ~n in
  Array.iter
    (fun w ->
      Storage.add storage ~node:w ~category:"tree" ~bits:(Dense.node_storage_bits rt w))
    (Tree.nodes tree);
  let route ?trace src dst =
    let emit ev = match trace with None -> () | Some f -> f ev in
    if src = dst then begin
      emit (Cr_obs.Trace.Deliver { phase = 0; node = dst });
      { Scheme.walk = [ src ]; delivered = true; phases_used = 1 }
    end
    else if not (Tree.mem tree src && Tree.mem tree dst) then begin
      emit (Cr_obs.Trace.No_route { phase = 1 });
      { Scheme.walk = [ src ]; delivered = false; phases_used = 1 }
    end
    else begin
      (* climb to the root, then search the directory *)
      (match trace with
      | None -> ()
      | Some f ->
          f (Cr_obs.Trace.Phase_start
               { phase = 1; kind = Cr_obs.Trace.Dense; center; bound = 0 });
          if src <> center then
            f (Cr_obs.Trace.Climb
                 {
                   phase = 1;
                   from_node = src;
                   to_node = center;
                   hops = (match Tree.path tree src center with [] -> 0 | p -> List.length p - 1);
                 }));
      let up = Tree.path tree src center in
      let r = Dense.search ?trace rt (Graph.name_of g dst) in
      let search_tail = match r.Dense.walk with [] -> [] | _ :: rest -> rest in
      match r.Dense.outcome with
      | Dense.Found _ ->
          emit (Cr_obs.Trace.Phase_result { phase = 1; found = true; rounds = 1 });
          emit (Cr_obs.Trace.Deliver { phase = 1; node = dst });
          { Scheme.walk = up @ search_tail; delivered = true; phases_used = 1 }
      | Dense.Not_found_reported ->
          emit (Cr_obs.Trace.Phase_result { phase = 1; found = false; rounds = 1 });
          emit (Cr_obs.Trace.No_route { phase = 1 });
          { Scheme.walk = up @ search_tail; delivered = false; phases_used = 1 }
    end
  in
  { Scheme.name = "single-tree"; graph = g; storage;
    header_bits = Scheme.label_header_bits ~n;
    route }
