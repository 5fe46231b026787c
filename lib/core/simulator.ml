module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Stats = Cr_util.Stats
module Rng = Cr_util.Rng

type outcome =
  | Delivered
  | No_route
  | Dropped_at_fault of int * int
  | Ttl_exceeded
  | Loop_detected
  | Invalid_hop of string

let outcome_to_string = function
  | Delivered -> "delivered"
  | No_route -> "no-route"
  | Dropped_at_fault (u, v) ->
      if u = v then Printf.sprintf "dropped-at-fault(node %d)" u
      else Printf.sprintf "dropped-at-fault(%d-%d)" u v
  | Ttl_exceeded -> "ttl-exceeded"
  | Loop_detected -> "loop-detected"
  | Invalid_hop msg -> Printf.sprintf "invalid-hop(%s)" msg

let is_delivered = function Delivered -> true | _ -> false

type measured = {
  src : int;
  dst : int;
  delivered : bool;
  cost : float;
  hops : int;
  stretch : float;
}

exception Invalid_walk of string

type checked = { outcome : outcome; checked_cost : float; checked_hops : int }

(* Shared validation core: walks cost along the walk until it either ends
   or hits an anomaly, and never raises.  The cost/hops cover the valid
   prefix. *)
let check_walk g ~src ~dst ~delivered walk =
  let n = Graph.n g in
  let bad msg cost hops = { outcome = Invalid_hop msg; checked_cost = cost; checked_hops = hops } in
  match walk with
  | [] -> bad "empty walk" 0.0 0
  | first :: _ when first <> src ->
      bad (Printf.sprintf "walk starts at %d, not source %d" first src) 0.0 0
  | first :: _ when first < 0 || first >= n ->
      bad (Printf.sprintf "node %d out of range" first) 0.0 0
  | _ ->
      let rec go cost hops = function
        | a :: (b :: _ as rest) ->
            if b < 0 || b >= n then bad (Printf.sprintf "node %d out of range" b) cost hops
            else (
              match Graph.edge_weight g a b with
              | Some w -> go (cost +. w) (hops + 1) rest
              | None -> bad (Printf.sprintf "non-edge %d-%d" a b) cost hops)
        | [ last ] ->
            if delivered && last <> dst then
              bad (Printf.sprintf "claimed delivery but walk ends at %d, not %d" last dst) cost hops
            else
              { outcome = (if delivered then Delivered else No_route);
                checked_cost = cost; checked_hops = hops }
        | [] -> assert false
      in
      go 0.0 0 walk

let walk_cost g walk =
  (* endpoint checks do not apply here: any well-formed walk prices *)
  match walk with
  | [] -> raise (Invalid_walk "empty walk")
  | first :: _ -> (
      let c = check_walk g ~src:first ~dst:first ~delivered:false walk in
      match c.outcome with
      | Invalid_hop msg -> raise (Invalid_walk msg)
      | _ -> (c.checked_cost, c.checked_hops))

(* Edge weights are positive, so [d = 0] exactly when source and
   destination coincide. *)
let stretch ~delivered ~cost d =
  if not delivered then infinity
  else if d = 0.0 then 1.0
  else if d = infinity then infinity
  else cost /. d

let measure apsp (scheme : Scheme.t) src dst =
  let g = Apsp.graph apsp in
  let r = scheme.Scheme.route src dst in
  let c = check_walk g ~src ~dst ~delivered:r.Scheme.delivered r.Scheme.walk in
  (match c.outcome with Invalid_hop msg -> raise (Invalid_walk msg) | _ -> ());
  let stretch =
    stretch ~delivered:r.Scheme.delivered ~cost:c.checked_cost (Apsp.distance apsp src dst)
  in
  { src; dst; delivered = r.Scheme.delivered; cost = c.checked_cost; hops = c.checked_hops; stretch }

type aggregate = {
  pairs : int;
  delivered : int;
  stretch_stats : Stats.summary;
  stretches : float array;
}

let measure_all ?pool apsp scheme pairs =
  let nq = Array.length pairs in
  if nq = 0 then [||]
  else begin
    (* the placeholder is never returned: every slot is overwritten *)
    let out =
      Array.make nq { src = 0; dst = 0; delivered = false; cost = 0.0; hops = 0; stretch = infinity }
    in
    let run i =
      let s, d = pairs.(i) in
      out.(i) <- measure apsp scheme s d
    in
    (match pool with
    | None -> for i = 0 to nq - 1 do run i done
    | Some pool -> Cr_util.Domain_pool.parallel_for ~chunk:32 pool ~n:nq run);
    out
  end

let aggregate_of_measured results =
  let delivered =
    Array.fold_left (fun c (m : measured) -> if m.delivered then c + 1 else c) 0 results
  in
  (* the last delivered result first: the order every pinned mean was
     summed in *)
  let stretch_arr = Array.make delivered 0.0 in
  let j = ref delivered in
  Array.iter
    (fun (m : measured) ->
      if m.delivered then begin
        decr j;
        stretch_arr.(!j) <- m.stretch
      end)
    results;
  {
    pairs = Array.length results;
    delivered;
    stretch_stats = (if Array.length stretch_arr = 0 then Stats.empty_summary else Stats.summarize stretch_arr);
    stretches = stretch_arr;
  }

let evaluate ?pool apsp scheme pairs = aggregate_of_measured (measure_all ?pool apsp scheme pairs)

exception Sample_shortfall of { requested : int; found : int }

let () =
  Printexc.register_printer (function
    | Sample_shortfall { requested; found } ->
        Some
          (Printf.sprintf
             "Simulator.Sample_shortfall: only %d of %d requested connected pairs found \
              (sparse or near-disconnected graph)"
             found requested)
    | _ -> None)

let sample_pairs ?(allow_short = false) rng apsp ~count =
  let n = Graph.n (Apsp.graph apsp) in
  if n < 2 then invalid_arg "Simulator.sample_pairs: n < 2";
  let out = ref [] in
  let found = ref 0 in
  let guard = ref 0 in
  while !found < count && !guard < 100 * count do
    incr guard;
    let s = Rng.int rng n and d = Rng.int rng n in
    if s <> d && Apsp.distance apsp s d < infinity then begin
      out := (s, d) :: !out;
      incr found
    end
  done;
  if !found < count && not allow_short then
    raise (Sample_shortfall { requested = count; found = !found });
  Array.of_list !out
