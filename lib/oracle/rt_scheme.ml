(* Roditty–Tov-style routing baseline: route along the path the
   path-reporting oracle stitches.  The oracle's bunch tables double as
   routing tables — each entry's next-hop witness is exactly the port
   decision a node needs to forward toward the meeting witness — so the
   scheme inherits the oracle's 2k−1 stretch and O(k · n^{1+1/k})
   expected table size, traded against the AGM'06 schemes in the
   roster as the "oracle corner" of the space–stretch landscape. *)

module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Bits = Cr_util.Bits
module Scheme = Compact_routing.Scheme
module Storage = Compact_routing.Storage
module Trace = Cr_obs.Trace

let of_oracle g oracle =
  let k = Path_oracle.k oracle in
  let n = Graph.n g in
  let storage = Storage.create ~n in
  let idb = Bits.id_bits ~n in
  for u = 0 to n - 1 do
    Storage.add storage ~node:u ~category:"oracle_bunch"
      ~bits:(Path_oracle.node_entries oracle u * ((2 * idb) + Bits.distance_bits));
    Storage.add storage ~node:u ~category:"oracle_pivot"
      ~bits:(k * (idb + Bits.distance_bits))
  done;
  let route ?trace src dst =
    if src = dst then { Scheme.walk = [ src ]; delivered = true; phases_used = 0 }
    else
      match Path_oracle.path ?trace oracle src dst with
      | None ->
          (match trace with None -> () | Some sink -> sink (Trace.No_route { phase = k }));
          { Scheme.walk = [ src ]; delivered = false; phases_used = k }
      | Some a ->
          (match trace with
          | None -> ()
          | Some sink -> sink (Trace.Deliver { phase = a.Path_oracle.levels; node = dst }));
          { Scheme.walk = a.Path_oracle.walk; delivered = true;
            phases_used = a.Path_oracle.levels }
  in
  { Scheme.name = "rt"; graph = g; storage; header_bits = Scheme.label_header_bits ~n; route }

let make ?(k = 3) ?(seed = 31) apsp =
  of_oracle (Apsp.graph apsp) (Path_oracle.build ~k ~seed apsp)
