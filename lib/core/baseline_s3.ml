module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Ball = Cr_graph.Ball
module Dijkstra = Cr_graph.Dijkstra
module Bits = Cr_util.Bits
module Rng = Cr_util.Rng
module Tree = Cr_tree.Tree
module Tree_labels = Cr_tree.Tree_labels

let shortest_path apsp a b = List.rev (Dijkstra.path_to (Apsp.sssp apsp b) a)

(* color of an identifier: seeded avalanche mod ncolors *)
let color_of ~seed ncolors ident =
  let z = Int64.of_int (ident lxor (seed * 0x9E3779B9)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int (Int64.shift_right_logical z 8) mod ncolors

let build ?(seed = 5) apsp =
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  let idb = Bits.id_bits ~n in
  let rng = Rng.create seed in
  let ncolors = max 1 (Bits.ceil_pow (float_of_int (max 2 n)) 0.5) in
  let vic_size = min n (Bits.ceil_pow (float_of_int (max 2 n) *. float_of_int (Bits.bits_for (max 2 n))) 0.5) in
  let ident v = Graph.name_of g v in
  let color v = color_of ~seed ncolors (ident v) in
  (* vicinities *)
  let vicinity = Array.init n (fun u -> Ball.closest (Apsp.ball apsp u) vic_size) in
  let in_vicinity =
    Array.map
      (fun arr ->
        let t = Hashtbl.create (Array.length arr) in
        Array.iter (fun v -> Hashtbl.replace t v ()) arr;
        t)
      vicinity
  in
  (* landmarks: random sample of ~sqrt(n), topped up so that every node's
     vicinity contains at least one *)
  let is_landmark = Array.make n false in
  let sample = Rng.sample_without_replacement rng (min n ncolors) n in
  Array.iter (fun v -> is_landmark.(v) <- true) sample;
  for u = 0 to n - 1 do
    if not (Array.exists (fun v -> is_landmark.(v)) vicinity.(u)) then begin
      (* promote u's closest vicinity member deterministically *)
      let arr = vicinity.(u) in
      if Array.length arr > 0 then is_landmark.(arr.(0)) <- true
    end
  done;
  let landmarks =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if is_landmark.(v) then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  (* landmark trees over their reachable sets, with stretch-1 labels *)
  let trees = Hashtbl.create (Array.length landmarks) in
  Array.iter
    (fun l ->
      let res = Apsp.sssp apsp l in
      let tree = Tree.of_sssp g res ~members:res.Dijkstra.order in
      Hashtbl.replace trees l (tree, Tree_labels.build tree))
    landmarks;
  (* closest landmark of each node (same component) *)
  let closest_landmark = Array.make n (-1) in
  for v = 0 to n - 1 do
    let ball = Apsp.ball apsp v in
    let found = Ball.closest_in ball 1 (fun x -> is_landmark.(x)) in
    if Array.length found > 0 then closest_landmark.(v) <- found.(0)
  done;
  (* dictionaries: w holds (landmark, label) for every v of its color *)
  let dict = Array.init n (fun _ -> Hashtbl.create 4) in
  for v = 0 to n - 1 do
    if closest_landmark.(v) >= 0 then begin
      let c = color v in
      for w = 0 to n - 1 do
        if color w = c then Hashtbl.replace dict.(w) (ident v) v
      done
    end
  done;
  (* color pointers for colors missing from the vicinity *)
  let color_pointer = Array.make_matrix n ncolors (-1) in
  for u = 0 to n - 1 do
    let present = Array.make ncolors false in
    Array.iter (fun v -> present.(color v) <- true) vicinity.(u);
    let ball = Apsp.ball apsp u in
    for c = 0 to ncolors - 1 do
      if not present.(c) then begin
        let found = Ball.closest_in ball 1 (fun x -> color x = c) in
        if Array.length found > 0 then color_pointer.(u).(c) <- found.(0)
      end
    done
  done;
  (* ---- storage accounting ---- *)
  let storage = Storage.create ~n in
  for u = 0 to n - 1 do
    let pb = Bits.port_bits ~degree:(max 1 (Graph.degree g u)) in
    Storage.add storage ~node:u ~category:"s3-vicinity"
      ~bits:(Array.length vicinity.(u) * ((2 * idb) + pb));
    (* own label in every landmark tree *)
    let label_bits =
      Array.fold_left
        (fun acc l ->
          let tree, tl = Hashtbl.find trees l in
          acc + Tree_labels.node_storage_bits_at tl (Tree.tree_index tree u))
        0 landmarks
    in
    Storage.add storage ~node:u ~category:"s3-trees" ~bits:label_bits;
    let dict_bits =
      Hashtbl.fold
        (fun _ v acc ->
          let l = closest_landmark.(v) in
          let tree, tl = Hashtbl.find trees l in
          acc + (2 * idb) + idb + Tree_labels.label_bits_at tl (Tree.tree_index tree v))
        dict.(u) 0
    in
    Storage.add storage ~node:u ~category:"s3-dictionary" ~bits:dict_bits;
    let ptr_bits =
      Array.fold_left (fun acc p -> if p >= 0 then acc + idb else acc) 0 color_pointer.(u)
    in
    Storage.add storage ~node:u ~category:"s3-color-pointers" ~bits:ptr_bits
  done;
  (* ---- routing ---- *)
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
      (match trace with
      | None -> ()
      | Some f ->
          f (Cr_obs.Trace.Phase_start
               { phase = 1; kind = Cr_obs.Trace.Vicinity; center = src; bound = 0 }));
      if Hashtbl.mem in_vicinity.(src) dst then begin
        emit (Cr_obs.Trace.Phase_result { phase = 1; found = true; rounds = 1 });
        emit (Cr_obs.Trace.Deliver { phase = 1; node = dst });
        { Scheme.walk = shortest_path apsp src dst; delivered = true; phases_used = 1 }
      end
      else begin
        emit (Cr_obs.Trace.Phase_result { phase = 1; found = false; rounds = 1 });
        let c = color dst in
        (* nearest color-c node: in vicinity, else the stored pointer *)
        let w =
          let ball = Apsp.ball apsp src in
          let found =
            Ball.closest_in ball 1 (fun x ->
                color x = c && (Hashtbl.mem in_vicinity.(src) x || color_pointer.(src).(c) = x))
          in
          if Array.length found > 0 then found.(0) else color_pointer.(src).(c)
        in
        if w < 0 then begin
          emit (Cr_obs.Trace.No_route { phase = 2 });
          { Scheme.walk = [ src ]; delivered = false; phases_used = 2 }
        end
        else begin
          (match trace with
          | None -> ()
          | Some f ->
              f (Cr_obs.Trace.Phase_start
                   { phase = 2; kind = Cr_obs.Trace.Color; center = w; bound = c }));
          let up = shortest_path apsp src w in
          (match trace with
          | None -> ()
          | Some f ->
              if src <> w then
                f (Cr_obs.Trace.Climb
                     { phase = 2; from_node = src; to_node = w; hops = List.length up - 1 }));
          match Hashtbl.find_opt dict.(w) (ident dst) with
          | None ->
              (* same-color node exists but dst unknown: cannot happen for
                 existing identifiers; report failure by returning *)
              emit (Cr_obs.Trace.Phase_result { phase = 2; found = false; rounds = 1 });
              emit (Cr_obs.Trace.No_route { phase = 2 });
              let back = match shortest_path apsp w src with [] -> [] | _ :: r -> r in
              { Scheme.walk = up @ back; delivered = false; phases_used = 2 }
          | Some v ->
              let l = closest_landmark.(v) in
              let tree, _ = Hashtbl.find trees l in
              (match trace with
              | None -> ()
              | Some f ->
                  f (Cr_obs.Trace.Tree_step { round = 1; from_node = w; to_node = v }));
              emit (Cr_obs.Trace.Phase_result { phase = 2; found = true; rounds = 1 });
              emit (Cr_obs.Trace.Deliver { phase = 2; node = dst });
              let tail = match Tree.path tree w v with [] -> [] | _ :: r -> r in
              { Scheme.walk = up @ tail; delivered = true; phases_used = 2 }
        end
      end
    end
  in
  { Scheme.name = "agmnt-stretch3"; graph = g; storage;
    header_bits = Scheme.label_header_bits ~n + idb;
    route }
