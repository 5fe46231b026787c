module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Bits = Cr_util.Bits

let shortest_path apsp a b = List.rev (Dijkstra.path_to (Apsp.sssp apsp b) a)

let label_vectors ?(k = 3) ?(seed = 99) apsp =
  let h = Tz_hierarchy.build Node_indexed ~k ~seed apsp in
  Array.mapi (fun v p -> Array.append [| v |] (Array.sub p 1 (k - 1))) h.Tz_hierarchy.pivots

let build ?(k = 3) ?(seed = 99) apsp =
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  let h = Tz_hierarchy.build Node_indexed ~k ~seed apsp in
  let bunches =
    Array.init n (fun u ->
        let d = (Apsp.sssp apsp u).Dijkstra.dist in
        let b = Hashtbl.create 16 in
        for w = 0 to n - 1 do
          if Tz_hierarchy.in_bunch h u w d w then Hashtbl.replace b w ()
        done;
        b)
  in
  let storage = Storage.create ~n in
  let idb = Bits.id_bits ~n in
  for u = 0 to n - 1 do
    let pb = Bits.port_bits ~degree:(max 1 (Graph.degree g u)) in
    (* bunch entries: id + port + distance *)
    Storage.add storage ~node:u ~category:"tz-bunch"
      ~bits:(Hashtbl.length bunches.(u) * (idb + pb + Bits.distance_bits));
    (* own label (v, pivots): the address the designer hands out *)
    Storage.add storage ~node:u ~category:"tz-label" ~bits:(k * idb);
    (* pivot tree routing state: interval info per child in each pivot
       tree the node participates in; approximated by one entry per level *)
    Storage.add storage ~node:u ~category:"tz-trees" ~bits:(k * (idb + pb))
  done;
  let route ?trace src dst =
    let emit ev = match trace with None -> () | Some f -> f ev in
    if src = dst then begin
      emit (Cr_obs.Trace.Deliver { phase = 0; node = dst });
      { Scheme.walk = [ src ]; delivered = true; phases_used = 1 }
    end
    else if Apsp.distance apsp src dst = infinity then begin
      emit (Cr_obs.Trace.No_route { phase = 1 });
      { Scheme.walk = [ src ]; delivered = false; phases_used = 1 }
    end
    else begin
      (* label of dst = (dst, p_1(dst), ..., p_{k-1}(dst)) *)
      (match trace with
      | None -> ()
      | Some f ->
          f (Cr_obs.Trace.Phase_start
               { phase = 1; kind = Cr_obs.Trace.Vicinity; center = src; bound = 0 }));
      if Hashtbl.mem bunches.(src) dst then begin
        emit (Cr_obs.Trace.Phase_result { phase = 1; found = true; rounds = 1 });
        emit (Cr_obs.Trace.Deliver { phase = 1; node = dst });
        { Scheme.walk = shortest_path apsp src dst; delivered = true; phases_used = 1 }
      end
      else begin
        emit (Cr_obs.Trace.Phase_result { phase = 1; found = false; rounds = 1 });
        (* smallest j >= 1 with p_j(dst) in B(src); j = k-1 always works *)
        let rec find j =
          if j >= k then None
          else begin
            let w = h.Tz_hierarchy.pivots.(dst).(j) in
            if w >= 0 && Hashtbl.mem bunches.(src) w then Some (j, w) else find (j + 1)
          end
        in
        match find 1 with
        | None ->
            emit (Cr_obs.Trace.No_route { phase = 2 });
            { Scheme.walk = [ src ]; delivered = false; phases_used = k }
        | Some (j, w) ->
            (match trace with
            | None -> ()
            | Some f ->
                f (Cr_obs.Trace.Phase_start
                     { phase = 2; kind = Cr_obs.Trace.Pivot; center = w; bound = j }));
            let up = shortest_path apsp src w in
            let down = match shortest_path apsp w dst with [] -> [] | _ :: rest -> rest in
            (match trace with
            | None -> ()
            | Some f ->
                if src <> w then
                  f (Cr_obs.Trace.Climb
                       { phase = 2; from_node = src; to_node = w; hops = List.length up - 1 });
                f (Cr_obs.Trace.Tree_step { round = 1; from_node = w; to_node = dst }));
            emit (Cr_obs.Trace.Phase_result { phase = 2; found = true; rounds = 1 });
            emit (Cr_obs.Trace.Deliver { phase = 2; node = dst });
            { Scheme.walk = up @ down; delivered = true; phases_used = 2 }
      end
    end
  in
  {
    Scheme.name = Printf.sprintf "tz-labeled(k=%d)" k;
    graph = g;
    storage;
    (* the destination label (k pivots) travels in the header *)
    header_bits = Scheme.default_header_bits ~n + (k * idb);
    route;
  }
