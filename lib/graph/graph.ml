type t = {
  n : int;
  m : int;
  adj : (int * float) array array;
  names : int array;
}

(* Structural fingerprint sampling a bounded prefix of the adjacency
   (at most 64 nodes, 8 edges each, stride-spread over the node range),
   so it stays O(1) in the graph size yet separates graphs that merely
   share (n, m): topology enters through the sampled neighbor indexes
   and degrees, weights through their exact bit patterns.  Used as the
   salt that keys shared plan-cache fingerprints to a specific graph. *)
let mix h x =
  let x = (h lxor x) * 0x4be98134a5976fd3 in
  let x = (x lxor (x lsr 29)) * 0x3bbf2a01358fb6d5 in
  (x lxor (x lsr 32)) land max_int

let hash g =
  let node_samples = 64 and edge_samples = 8 in
  let stride = max 1 ((g.n + node_samples - 1) / node_samples) in
  let h = ref (mix g.n g.m) in
  let u = ref 0 in
  while !u < g.n do
    let a = g.adj.(!u) in
    h := mix !h (Array.length a);
    for j = 0 to min (Array.length a) edge_samples - 1 do
      let v, w = a.(j) in
      h := mix !h v;
      h := mix !h (Int64.to_int (Int64.bits_of_float w))
    done;
    u := !u + stride
  done;
  !h

let create ?names ~n edges =
  if n < 0 then invalid_arg "Graph.create: negative n";
  let names =
    match names with
    | None -> Array.init n (fun i -> i)
    | Some a ->
        if Array.length a <> n then invalid_arg "Graph.create: names length mismatch";
        Array.copy a
  in
  (* Merge parallel edges keeping the minimum weight. *)
  let tbl = Hashtbl.create (2 * List.length edges) in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Graph.create: node out of range";
      if u = v then invalid_arg "Graph.create: self-loop";
      if not (w > 0.0) then invalid_arg "Graph.create: non-positive weight";
      let key = if u < v then (u, v) else (v, u) in
      match Hashtbl.find_opt tbl key with
      | Some w' when w' <= w -> ()
      | _ -> Hashtbl.replace tbl key w)
    edges;
  let deg = Array.make n 0 in
  Hashtbl.iter
    (fun (u, v) _ ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    tbl;
  let adj = Array.init n (fun u -> Array.make deg.(u) (0, 0.0)) in
  let fill = Array.make n 0 in
  Hashtbl.iter
    (fun (u, v) w ->
      adj.(u).(fill.(u)) <- (v, w);
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- (u, w);
      fill.(v) <- fill.(v) + 1)
    tbl;
  Array.iter (fun a -> Array.sort (fun (x, _) (y, _) -> compare x y) a) adj;
  { n; m = Hashtbl.length tbl; adj; names }

let n g = g.n

let m g = g.m

let degree g u = Array.length g.adj.(u)

let max_degree g = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

let neighbors g u = g.adj.(u)

let iter_edges g f =
  Array.iteri
    (fun u a -> Array.iter (fun (v, w) -> if u < v then f u v w) a)
    g.adj

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v w -> acc := (u, v, w) :: !acc);
  List.rev !acc

(* Binary search in the sorted adjacency array. *)
let find_port g u v =
  let a = g.adj.(u) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let res = ref None in
  while !res = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x, _ = a.(mid) in
    if x = v then res := Some mid else if x < v then lo := mid + 1 else hi := mid - 1
  done;
  !res

let port g u v = find_port g u v

let has_edge g u v = find_port g u v <> None

let edge_weight g u v =
  match find_port g u v with None -> None | Some p -> Some (snd g.adj.(u).(p))

let via_port g u p =
  let a = g.adj.(u) in
  if p < 0 || p >= Array.length a then invalid_arg "Graph.via_port: bad port";
  a.(p)

let name_of g u = g.names.(u)

let fold_weights f init g =
  let acc = ref init in
  iter_edges g (fun _ _ w -> acc := f !acc w);
  !acc

let min_weight g = fold_weights min infinity g

let max_weight g = fold_weights max 0.0 g

let map_weights g f =
  let adj = Array.map (Array.map (fun (v, w) -> (v, f v w))) g.adj in
  (* f is applied per directed entry; caller must be symmetric. *)
  { g with adj }

let normalize g =
  let wmin = min_weight g in
  if g.m = 0 || wmin = 1.0 then g
  else map_weights g (fun _ w -> w /. wmin)

let reweight g f =
  (* Rebuild from the undirected edge list so that [f] is applied exactly
     once per edge — [f] may be stateful (e.g. draw random weights). *)
  let acc = ref [] in
  iter_edges g (fun u v w ->
      let w' = f u v w in
      if not (w' > 0.0) then invalid_arg "Graph.reweight: non-positive weight";
      acc := (u, v, w') :: !acc);
  create ~names:(Array.copy g.names) ~n:g.n !acc

let induced g nodes =
  let k = Array.length nodes in
  let map = Hashtbl.create k in
  Array.iteri
    (fun i u ->
      if Hashtbl.mem map u then invalid_arg "Graph.induced: duplicate node";
      Hashtbl.replace map u i)
    nodes;
  let edges = ref [] in
  Array.iteri
    (fun i u ->
      Array.iter
        (fun (v, w) ->
          match Hashtbl.find_opt map v with
          | Some j when i < j -> edges := (i, j, w) :: !edges
          | _ -> ())
        g.adj.(u))
    nodes;
  let names = Array.map (fun u -> g.names.(u)) nodes in
  (create ~names ~n:k !edges, nodes)

(* ---- online mutations -------------------------------------------------

   The churn vocabulary of the route daemon: weight changes, link
   up/down, node crash/recover.  Mutations are persistent — [apply]
   returns a fresh graph and never touches the input — so a serving
   epoch can keep routing from the old graph while repair works on the
   new one.  [Set_weight] preserves the adjacency structure exactly
   (same neighbor order, hence same port numbers); the link and node
   mutations rebuild through [create], which re-sorts adjacencies the
   same deterministic way the original construction did. *)

type mutation =
  | Set_weight of int * int * float
  | Link_down of int * int
  | Link_up of int * int * float
  | Node_down of int
  | Node_up of int

let mutation_to_string = function
  | Set_weight (u, v, w) -> Printf.sprintf "setw %d %d %.17g" u v w
  | Link_down (u, v) -> Printf.sprintf "linkdown %d %d" u v
  | Link_up (u, v, w) -> Printf.sprintf "linkup %d %d %.17g" u v w
  | Node_down u -> Printf.sprintf "nodedown %d" u
  | Node_up u -> Printf.sprintf "nodeup %d" u

let apply g mu =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let check_node what u =
    if u < 0 || u >= g.n then fail "Graph.apply: %s %d out of range [0, %d)" what u g.n
  in
  let check_weight w =
    if not (Float.is_finite w && w > 0.0) then
      fail "Graph.apply: weight %g must be positive and finite" w
  in
  match mu with
  | Set_weight (u, v, w) ->
      check_node "endpoint" u;
      check_node "endpoint" v;
      check_weight w;
      if find_port g u v = None then fail "Graph.apply: setw on missing edge (%d, %d)" u v;
      (* weight-only change: copy the adjacency, patch both directed
         entries in place — ports are untouched by construction *)
      let adj = Array.map Array.copy g.adj in
      let patch x y =
        match find_port g x y with
        | Some p -> adj.(x).(p) <- (y, w)
        | None -> assert false
      in
      patch u v;
      patch v u;
      { g with adj }
  | Link_down (u, v) ->
      check_node "endpoint" u;
      check_node "endpoint" v;
      if find_port g u v = None then fail "Graph.apply: linkdown on missing edge (%d, %d)" u v;
      let es = List.filter (fun (a, b, _) -> not ((a = u && b = v) || (a = v && b = u))) (edges g) in
      create ~names:(Array.copy g.names) ~n:g.n es
  | Link_up (u, v, w) ->
      check_node "endpoint" u;
      check_node "endpoint" v;
      if u = v then fail "Graph.apply: linkup self-loop at node %d" u;
      check_weight w;
      if find_port g u v <> None then fail "Graph.apply: linkup on existing edge (%d, %d)" u v;
      create ~names:(Array.copy g.names) ~n:g.n ((u, v, w) :: edges g)
  | Node_down u ->
      check_node "node" u;
      let es = List.filter (fun (a, b, _) -> a <> u && b <> u) (edges g) in
      create ~names:(Array.copy g.names) ~n:g.n es
  | Node_up u ->
      (* recovery restores the node as an isolated participant; its
         links come back through explicit linkups (real churn: a
         rebooted router renegotiates each adjacency) *)
      check_node "node" u;
      g

let apply_all g mus = List.fold_left apply g mus

let relabel rng g =
  (* Random distinct identifiers drawn from a space 16x larger than n,
     so names carry no topological information. *)
  let space = max 16 (16 * g.n) in
  let fresh = Cr_util.Rng.sample_without_replacement rng g.n space in
  { g with names = fresh }
