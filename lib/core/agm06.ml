module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Ball = Cr_graph.Ball
module Dijkstra = Cr_graph.Dijkstra
module Bits = Cr_util.Bits
module Landmarks = Cr_landmark.Landmarks
module Tree = Cr_tree.Tree
module Ni = Cr_tree.Ni_tree_routing
module Dense = Cr_tree.Dense_tree_routing
module Cover = Cr_cover.Sparse_cover

type mode = Full | Sparse_only | Dense_only

type stats = {
  routes : int;
  delivered : int;
  fallback_resolved : int;
  failed : int;
  phase_found : int array;
}

(* Live counters behind [stats] snapshots.  [route] may be called from
   several domains at once (the batch engine shards query arrays over
   the shared pool), so the counters are atomic: totals stay exact under
   any interleaving. *)
type counters = {
  routes_c : int Atomic.t;
  delivered_c : int Atomic.t;
  fallback_c : int Atomic.t;
  failed_c : int Atomic.t;
  phase_found_c : int Atomic.t array;
}

(* Per-(node, phase) routing plan. *)
type phase_plan =
  | Sparse of { center : int; bound : int }
  | Dense_phase of { level : int; cluster : int (* index into that level's cover *) }

type t = {
  params : Params.t;
  decomp : Decomposition.t;
  plans : phase_plan array array; (* plans.(u).(i) for levels i = 0..k-1 *)
  centers : (int, Ni.t) Hashtbl.t; (* sparse centers in use -> NI routing *)
  covers : (int * Cover.t * Dense.t array) list; (* level, cover, per-cluster routing *)
  global_root : int;
  global_ni : Ni.t;
  storage : Storage.t;
  counters : counters;
  scheme : Scheme.t;
}

let tree_path_append tree walk_rev a b =
  match Tree.path tree a b with
  | [] -> walk_rev
  | _first :: rest -> List.rev_append rest walk_rev

(* Append a search walk (which starts at its tree root, where the main
   walk currently stands). *)
let search_walk_append walk_rev = function
  | [] -> walk_rev
  | _first :: rest -> List.rev_append rest walk_rev

let build ?params ?(mode = Full) ?profile apsp =
  let params = match params with Some p -> p | None -> Params.scaled ~k:3 () in
  Params.validate params;
  (* [prof stage f] times the stage when a profile was supplied; without
     one it is [f ()] — construction work is identical either way. *)
  let prof stage f =
    match profile with None -> f () | Some p -> Cr_obs.Profile.time p stage f
  in
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  if n < 1 then invalid_arg "Agm06.build: empty graph";
  if Graph.m g > 0 && Graph.min_weight g < 1.0 -. 1e-9 then
    invalid_arg "Agm06.build: graph must be normalized (min edge weight 1)";
  let k = params.Params.k in
  let seed = params.Params.seed in
  let decomp = prof "decomposition" (fun () -> Decomposition.build apsp ~k) in
  let landmarks = prof "landmark-hierarchy" (fun () -> Landmarks.build ~seed ~n ~k) in
  let cap = Params.landmark_cap params ~n in
  let storage = Storage.create ~n in
  let idb = Bits.id_bits ~n in
  (* ---- nearby landmark sets S(u), inverted: members_of.(v) = {u : v ∈ S(u)} ---- *)
  let members_of =
    prof "nearby-sets" (fun () ->
        let s_sets = Array.init n (fun u -> Landmarks.nearby_set landmarks (Apsp.ball apsp u) ~cap) in
        let count = Array.make n 0 in
        Array.iter (Array.iter (fun v -> count.(v) <- count.(v) + 1)) s_sets;
        let members_of = Array.map (fun c -> Array.make c 0) count in
        Array.fill count 0 n 0;
        Array.iteri
          (fun u s ->
            Array.iter
              (fun v ->
                members_of.(v).(count.(v)) <- u;
                count.(v) <- count.(v) + 1)
              s)
          s_sets;
        members_of)
  in
  (* ---- global fallback root: closest-to-everything top-rank landmark ---- *)
  let top_rank = ref 0 in
  for v = 0 to n - 1 do
    if Landmarks.rank landmarks v > !top_rank then top_rank := Landmarks.rank landmarks v
  done;
  let global_root = ref (-1) in
  for v = n - 1 downto 0 do
    if Landmarks.rank landmarks v = !top_rank then global_root := v
  done;
  let global_root = !global_root in
  (* ---- phase plans ---- *)
  let treat_as_dense u i =
    match mode with
    | Full -> Decomposition.is_dense decomp u i
    | Sparse_only -> false
    | Dense_only -> true
  in
  let sparse_centers = Hashtbl.create 64 in
  let plans =
    Array.init n (fun u ->
        Array.init k (fun i ->
            if treat_as_dense u i then
              Dense_phase { level = Decomposition.range decomp u i; cluster = -1 (* filled below *) }
            else begin
              let ball = Apsp.ball apsp u in
              (* A(u,0) = {u}: radius 0; otherwise the ball of radius 2^{a(u,i)} *)
              let radius =
                if i = 0 then 0.0
                else Decomposition.radius_of_exponent (Decomposition.range decomp u i)
              in
              let center =
                match Landmarks.center_in landmarks ball ~radius with
                | Some c -> c
                | None -> u
              in
              Hashtbl.replace sparse_centers center ();
              Sparse { center; bound = k (* refined after trees are built *) }
            end))
  in
  Hashtbl.replace sparse_centers global_root ();
  (* ---- per-center trees with Lemma 4 routing; full storage sweep ---- *)
  let centers = Hashtbl.create (Hashtbl.length sparse_centers) in
  (* T(v) spans the root and members, and its Lemma 4 structure is
     seeded by v. *)
  let tree_seed v = seed + v + 1 in
  (* The global tree spans everything and is accounted under "fallback". *)
  let global_ni =
    prof "sparse-trees" (fun () ->
        let res = Apsp.sssp apsp global_root in
        let global_ni =
          Ni.build ~seed:(tree_seed global_root) ~k ~n_global:n g res ~members:res.Dijkstra.order
        in
        Array.iter
          (fun w ->
            Storage.add storage ~node:w ~category:"fallback" ~bits:(Ni.node_storage_bits global_ni w))
          (Tree.nodes (Ni.tree global_ni));
        (* Every node v held in someone's S(u) gets a tree T(v), and its
           members pay for it.  Only the trees of centers that route are
           built; the rest are counted in scratch. *)
        let bits = Array.make n 0 in
        for v = 0 to n - 1 do
          let members = members_of.(v) in
          if v <> global_root && Array.length members > 0 then begin
            let seed = tree_seed v and res = Apsp.sssp apsp v in
            if Hashtbl.mem sparse_centers v then begin
              let ni = Ni.build ~seed ~k ~n_global:n g res ~members in
              Array.iter
                (fun w -> bits.(w) <- bits.(w) + Ni.node_storage_bits ni w)
                (Tree.nodes (Ni.tree ni));
              Hashtbl.replace centers v ni
            end
            else Ni.add_storage_bits ~seed ~k ~n_global:n g res ~members bits
          end
        done;
        Array.iteri
          (fun w b -> if b > 0 then Storage.add storage ~node:w ~category:"sparse-trees" ~bits:b)
          bits;
        Hashtbl.replace centers global_root global_ni;
        (* ---- refine sparse bounds b(u,i) now that trees exist ---- *)
        for u = 0 to n - 1 do
          Array.iteri
            (fun i plan ->
              match plan with
              | Sparse { center; _ } ->
                  let ni = Hashtbl.find centers center in
                  let b = Ni.guaranteed_bound ni (Decomposition.e_set decomp u i) in
                  plans.(u).(i) <- Sparse { center; bound = b }
              | Dense_phase _ -> ())
            plans.(u)
        done;
        global_ni)
  in
  (* ---- covers for every populated level (paper §3.5 stores all) ---- *)
  let covers =
    prof "dense-covers" (fun () ->
        List.map
          (fun level ->
            let allowed u = Decomposition.in_level_graph decomp u level in
            let rho = Decomposition.radius_of_exponent level in
            let cover = Cover.build ~apsp ~allowed ~k ~rho g in
            let dense_rts =
              Array.map
                (fun (c : Cover.cluster) -> Dense.build c.Cover.tree)
                (Cover.clusters cover)
            in
            Array.iter
              (fun (rt : Dense.t) ->
                Array.iter
                  (fun w ->
                    Storage.add storage ~node:w ~category:"dense-covers"
                      ~bits:(Dense.node_storage_bits rt w))
                  (Tree.nodes (Dense.tree rt)))
              dense_rts;
            (level, cover, dense_rts))
          (Decomposition.needed_levels decomp))
  in
  let cover_at level = List.find (fun (l, _, _) -> l = level) covers in
  (* fill in dense cluster assignments *)
  for u = 0 to n - 1 do
    Array.iteri
      (fun i plan ->
        match plan with
        | Dense_phase { level; _ } ->
            let _, cover, _ = cover_at level in
            plans.(u).(i) <- Dense_phase { level; cluster = Cover.home cover u }
        | Sparse _ -> ())
      plans.(u)
  done;
  (* ---- local records: ranges, per-phase center/bound/root ids ---- *)
  prof "local-records" (fun () ->
      for u = 0 to n - 1 do
        Storage.add storage ~node:u ~category:"local" ~bits:((k + 1) * Bits.range_bits);
        Array.iter
          (fun plan ->
            let bits =
              match plan with
              | Sparse _ -> idb + Bits.level_bits ~k
              | Dense_phase _ -> idb
            in
            Storage.add storage ~node:u ~category:"local" ~bits)
          plans.(u);
        Storage.add storage ~node:u ~category:"local" ~bits:idb (* global root id *)
      done);
  (* Attribute the built bits to the stages that produced them, so the
     profile reports bits-and-seconds per stage. *)
  (match profile with
  | None -> ()
  | Some p ->
      List.iter
        (fun (category, bits) ->
          let stage =
            match category with
            | "sparse-trees" | "fallback" -> "sparse-trees"
            | "dense-covers" -> "dense-covers"
            | "local" -> "local-records"
            | other -> other
          in
          Cr_obs.Profile.add_bits p stage bits)
        (Storage.categories storage));
  let counters =
    {
      routes_c = Atomic.make 0;
      delivered_c = Atomic.make 0;
      fallback_c = Atomic.make 0;
      failed_c = Atomic.make 0;
      phase_found_c = Array.init (k + 2) (fun _ -> Atomic.make 0);
    }
  in
  (* ---- the routing procedure ---- *)
  (* The [trace] sink is pure annotation: every emission sits behind a
     [match trace with None -> ()] so the disabled path costs one branch
     and allocates nothing, and no event changes the walk (the
     determinism contract of DESIGN.md §7). *)
  let route ?trace src dst =
    let ident = Graph.name_of g dst in
    (* tree hops between a and b, recomputed only when tracing *)
    let climb_hops tree a b =
      match Tree.path tree a b with [] -> 0 | p -> List.length p - 1
    in
    let emit_climb phase tree a b =
      match trace with
      | None -> ()
      | Some f ->
          if a <> b then
            f (Cr_obs.Trace.Climb
                 { phase; from_node = a; to_node = b; hops = climb_hops tree a b })
    in
    Atomic.incr counters.routes_c;
    if src = dst then begin
      Atomic.incr counters.delivered_c;
      (match trace with
      | None -> ()
      | Some f -> f (Cr_obs.Trace.Deliver { phase = 0; node = dst }));
      { Scheme.walk = [ src ]; delivered = true; phases_used = 0 }
    end
    else begin
      let finish ?(is_global = false) walk_rev phase found =
        if found then begin
          Atomic.incr counters.delivered_c;
          Atomic.incr counters.phase_found_c.(min phase (k + 1));
          if is_global then Atomic.incr counters.fallback_c
        end
        else Atomic.incr counters.failed_c;
        (match trace with
        | None -> ()
        | Some f ->
            if found then f (Cr_obs.Trace.Deliver { phase; node = dst })
            else f (Cr_obs.Trace.No_route { phase }));
        { Scheme.walk = List.rev walk_rev; delivered = found; phases_used = phase }
      in
      let emit_result phase found rounds =
        match trace with
        | None -> ()
        | Some f -> f (Cr_obs.Trace.Phase_result { phase; found; rounds })
      in
      let rec phase_loop i walk_rev =
        if i > k - 1 then global_phase walk_rev
        else begin
          match plans.(src).(i) with
          | Sparse { center; bound } -> (
              (match trace with
              | None -> ()
              | Some f ->
                  f (Cr_obs.Trace.Phase_start
                       { phase = i + 1; kind = Cr_obs.Trace.Sparse; center; bound }));
              let ni = Hashtbl.find centers center in
              let tree = Ni.tree ni in
              emit_climb (i + 1) tree src center;
              let walk_rev = tree_path_append tree walk_rev src center in
              let r = Ni.search ?trace ni ~bound ident in
              match r.Ni.outcome with
              | Ni.Found x ->
                  ignore x;
                  emit_result (i + 1) true r.Ni.rounds;
                  finish (search_walk_append walk_rev r.Ni.walk) (i + 1) true
              | Ni.Not_found_reported ->
                  emit_result (i + 1) false r.Ni.rounds;
                  let walk_rev = search_walk_append walk_rev r.Ni.walk in
                  emit_climb (i + 1) tree center src;
                  let walk_rev = tree_path_append tree walk_rev center src in
                  phase_loop (i + 1) walk_rev)
          | Dense_phase { level; cluster } -> (
              let _, cover, dense_rts = cover_at level in
              let cl = (Cover.clusters cover).(cluster) in
              let rt = dense_rts.(cluster) in
              let tree = cl.Cover.tree in
              let root = cl.Cover.center in
              (match trace with
              | None -> ()
              | Some f ->
                  f (Cr_obs.Trace.Phase_start
                       { phase = i + 1; kind = Cr_obs.Trace.Dense; center = root; bound = level }));
              emit_climb (i + 1) tree src root;
              let walk_rev = tree_path_append tree walk_rev src root in
              let r = Dense.search ?trace rt ident in
              match r.Dense.outcome with
              | Dense.Found _ ->
                  emit_result (i + 1) true 1;
                  finish (search_walk_append walk_rev r.Dense.walk) (i + 1) true
              | Dense.Not_found_reported ->
                  emit_result (i + 1) false 1;
                  let walk_rev = search_walk_append walk_rev r.Dense.walk in
                  emit_climb (i + 1) tree root src;
                  let walk_rev = tree_path_append tree walk_rev root src in
                  phase_loop (i + 1) walk_rev)
        end
      and global_phase walk_rev =
        (match trace with
        | None -> ()
        | Some f ->
            f (Cr_obs.Trace.Phase_start
                 { phase = k + 1; kind = Cr_obs.Trace.Global; center = global_root; bound = k }));
        let tree = Ni.tree global_ni in
        emit_climb (k + 1) tree src global_root;
        let walk_rev = tree_path_append tree walk_rev src global_root in
        let r = Ni.search ?trace global_ni ~bound:k ident in
        match r.Ni.outcome with
        | Ni.Found _ ->
            emit_result (k + 1) true r.Ni.rounds;
            finish ~is_global:true (search_walk_append walk_rev r.Ni.walk) (k + 1) true
        | Ni.Not_found_reported ->
            emit_result (k + 1) false r.Ni.rounds;
            let walk_rev = search_walk_append walk_rev r.Ni.walk in
            emit_climb (k + 1) tree global_root src;
            let walk_rev = tree_path_append tree walk_rev global_root src in
            finish ~is_global:true walk_rev (k + 1) false
      in
      phase_loop 0 [ src ]
    end
  in
  let scheme =
    { Scheme.name = Printf.sprintf "agm06(k=%d)" k; graph = g; storage;
      (* destination identifier + phase/round counters + the in-flight
         tree-routing label: the paper's Õ(1)-bit headers *)
      header_bits = Scheme.label_header_bits ~n + Bits.bits_for (k + 2) + Bits.level_bits ~k;
      route }
  in
  {
    params;
    decomp;
    plans;
    centers;
    covers;
    global_root;
    global_ni;
    storage;
    counters;
    scheme;
  }

let scheme t = t.scheme

let decomposition t = t.decomp

let params t = t.params

let stats t =
  let c = t.counters in
  {
    routes = Atomic.get c.routes_c;
    delivered = Atomic.get c.delivered_c;
    fallback_resolved = Atomic.get c.fallback_c;
    failed = Atomic.get c.failed_c;
    phase_found = Array.map Atomic.get c.phase_found_c;
  }

let center_count t = Hashtbl.length t.centers

let cover_levels t = List.map (fun (l, _, _) -> l) t.covers

let phase_plan t u i =
  if i < 0 || i >= t.params.Params.k then invalid_arg "Agm06.phase_plan: level out of range";
  match t.plans.(u).(i) with
  | Sparse { center; bound } -> `Sparse (center, bound)
  | Dense_phase { level; cluster } ->
      let cover =
        let _, c, _ = List.find (fun (l, _, _) -> l = level) t.covers in
        c
      in
      `Dense (level, (Cr_cover.Sparse_cover.clusters cover).(cluster).Cr_cover.Sparse_cover.center)

let describe_node t u =
  let buf = Buffer.create 512 in
  let k = t.params.Params.k in
  Buffer.add_string buf
    (Printf.sprintf "node %d (identifier %d)\n" u (Graph.name_of t.scheme.Scheme.graph u));
  Buffer.add_string buf
    (Printf.sprintf "  ranges a(u,0..%d) = [%s]\n" k
       (String.concat "; "
          (List.init (k + 1) (fun i -> string_of_int (Decomposition.range t.decomp u i)))));
  for i = 0 to k - 1 do
    match phase_plan t u i with
    | `Sparse (center, bound) ->
        Buffer.add_string buf
          (Printf.sprintf "  level %d: sparse -> center %d, %d-bounded search\n" i center bound)
    | `Dense (level, root) ->
        Buffer.add_string buf
          (Printf.sprintf "  level %d: dense  -> cover level %d, cluster root %d\n" i level root)
  done;
  Buffer.add_string buf (Printf.sprintf "  global root %d\n" t.global_root);
  Buffer.add_string buf "  storage:\n";
  List.iter
    (fun (cat, bits) -> Buffer.add_string buf (Printf.sprintf "    %-14s %6d bits\n" cat bits))
    (Storage.node_categories t.storage u);
  Buffer.add_string buf
    (Printf.sprintf "    %-14s %6d bits\n" "total" (Storage.node_bits t.storage u));
  Buffer.contents buf
