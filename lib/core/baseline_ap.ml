module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Tree = Cr_tree.Tree
module Dense = Cr_tree.Dense_tree_routing
module Cover = Cr_cover.Sparse_cover

(* scales 0 .. ⌈log₂ max(1, diameter)⌉ *)
let log_delta apsp =
  let diameter = Apsp.diameter apsp in
  max 0 (int_of_float (Float.ceil (Float.log (Float.max 1.0 diameter) /. Float.log 2.0)))

let levels apsp = log_delta apsp + 1

let build ?(k = 3) apsp =
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  let log_delta = log_delta apsp in
  let storage = Storage.create ~n in
  (* one cover per scale, over the whole graph: the log Δ dependence *)
  let levels =
    Array.init (log_delta + 1) (fun i ->
        let rho = 2.0 ** float_of_int i in
        let cover = Cover.build ~apsp ~k ~rho g in
        let rts =
          Array.map (fun (c : Cover.cluster) -> Dense.build c.Cover.tree) (Cover.clusters cover)
        in
        Array.iter
          (fun (rt : Dense.t) ->
            Array.iter
              (fun w ->
                Storage.add storage ~node:w ~category:"ap-covers"
                  ~bits:(Dense.node_storage_bits rt w))
              (Tree.nodes (Dense.tree rt)))
          rts;
        (* each node records its home-cluster root at this scale *)
        for u = 0 to n - 1 do
          Storage.add storage ~node:u ~category:"ap-local"
            ~bits:(Cr_util.Bits.id_bits ~n)
        done;
        (cover, rts))
  in
  let route ?trace src dst =
    let emit ev = match trace with None -> () | Some f -> f ev in
    if src = dst then begin
      emit (Cr_obs.Trace.Deliver { phase = 0; node = dst });
      { Scheme.walk = [ src ]; delivered = true; phases_used = 1 }
    end
    else begin
      let ident = Graph.name_of g dst in
      let rec scale i walk_rev =
        if i > log_delta then begin
          emit (Cr_obs.Trace.No_route { phase = i });
          { Scheme.walk = List.rev walk_rev; delivered = false; phases_used = i }
        end
        else begin
          let cover, rts = levels.(i) in
          let ci = Cover.home cover src in
          let cl = (Cover.clusters cover).(ci) in
          let rt = rts.(ci) in
          let tree = cl.Cover.tree in
          let root = cl.Cover.center in
          (match trace with
          | None -> ()
          | Some f ->
              f (Cr_obs.Trace.Phase_start
                   { phase = i + 1; kind = Cr_obs.Trace.Dense; center = root; bound = i });
              if src <> root then
                f (Cr_obs.Trace.Climb
                     {
                       phase = i + 1;
                       from_node = src;
                       to_node = root;
                       hops = (match Tree.path tree src root with [] -> 0 | p -> List.length p - 1);
                     }));
          let walk_rev =
            match Tree.path tree src root with
            | [] -> walk_rev
            | _ :: rest -> List.rev_append rest walk_rev
          in
          let r = Dense.search ?trace rt ident in
          let walk_rev =
            match r.Dense.walk with [] -> walk_rev | _ :: rest -> List.rev_append rest walk_rev
          in
          match r.Dense.outcome with
          | Dense.Found _ ->
              emit (Cr_obs.Trace.Phase_result { phase = i + 1; found = true; rounds = 1 });
              emit (Cr_obs.Trace.Deliver { phase = i + 1; node = dst });
              { Scheme.walk = List.rev walk_rev; delivered = true; phases_used = i + 1 }
          | Dense.Not_found_reported ->
              emit (Cr_obs.Trace.Phase_result { phase = i + 1; found = false; rounds = 1 });
              let walk_rev =
                match Tree.path tree root src with
                | [] -> walk_rev
                | _ :: rest -> List.rev_append rest walk_rev
              in
              scale (i + 1) walk_rev
        end
      in
      scale 0 [ src ]
    end
  in
  { Scheme.name = Printf.sprintf "awerbuch-peleg(k=%d)" k; graph = g; storage;
    header_bits = Scheme.label_header_bits ~n; route }
