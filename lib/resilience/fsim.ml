module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Sim = Compact_routing.Simulator
module Scheme = Compact_routing.Scheme

type policy = { ttl : int; max_retries : int; max_edge_visits : int }

let default_policy ?ttl ?(max_retries = 0) g =
  let ttl = match ttl with Some t -> t | None -> max 256 (16 * Graph.n g) in
  { ttl; max_retries; max_edge_visits = 32 }

type result = {
  outcome : Sim.outcome;
  walk : int list;
  cost : float;
  hops : int;
  retries : int;
  stretch : float;
}

let run ?trace policy plan apsp (scheme : Scheme.t) ~src ~dst =
  let g = Apsp.graph apsp in
  let emit ev = match trace with None -> () | Some f -> f ev in
  let n = Graph.n g in
  let cost = ref 0.0 and hops = ref 0 and retries = ref 0 in
  let walk_rev = ref [] in
  let cur = ref src in
  let edge_visits = Hashtbl.create 64 in
  let stalls_seen = Hashtbl.create 8 in
  let finish outcome =
    let stretch =
      Sim.stretch ~delivered:(Sim.is_delivered outcome) ~cost:!cost (Apsp.distance apsp src dst)
    in
    { outcome; walk = List.rev !walk_rev; cost = !cost; hops = !hops; retries = !retries; stretch }
  in
  (* One physical hop cur -> b of weight w; [Ok ()] or the terminal outcome. *)
  let traverse b w =
    if !hops + 1 > policy.ttl then Error Sim.Ttl_exceeded
    else begin
      let k = (!cur, b) in
      let seen = 1 + Option.value ~default:0 (Hashtbl.find_opt edge_visits k) in
      if seen > policy.max_edge_visits then Error Sim.Loop_detected
      else begin
        Hashtbl.replace edge_visits k seen;
        cost := !cost +. w;
        incr hops;
        walk_rev := b :: !walk_rev;
        cur := b;
        Ok ()
      end
    end
  in
  let plan_route u =
    match scheme.Scheme.route ?trace u dst with
    | r -> Ok r
    | exception e -> Error (Sim.Invalid_hop (Printf.sprintf "scheme raised %s" (Printexc.to_string e)))
  in
  (* Local detour around the dead hop cur -> b: deflect to the alive
     neighbor closest to dst in healthy distance, then replan there. *)
  let deflect b =
    let best = ref None in
    Array.iter
      (fun (w, wt) ->
        if w <> b && Fault_plan.hop_ok plan !cur w then
          let d = Apsp.distance apsp w dst in
          match !best with
          | Some (_, _, bd) when bd <= d -> ()
          | _ -> best := Some (w, wt, d))
      (Graph.neighbors g !cur);
    !best
  in
  let rec follow claimed queue =
    match queue with
    | [] | [ _ ] ->
        if !cur = dst then finish Sim.Delivered
        else if claimed then
          finish (Sim.Invalid_hop (Printf.sprintf "claimed delivery but walk ends at %d, not %d" !cur dst))
        else finish Sim.No_route
    | a :: (b :: _ as rest) ->
        if a <> !cur then
          finish (Sim.Invalid_hop (Printf.sprintf "walk jumps to %d while message is at %d" a !cur))
        else if b < 0 || b >= n then finish (Sim.Invalid_hop (Printf.sprintf "node %d out of range" b))
        else begin
          match Graph.edge_weight g a b with
          | None -> finish (Sim.Invalid_hop (Printf.sprintf "non-edge %d-%d" a b))
          | Some w ->
              if Fault_plan.hop_ok plan a b then (
                match traverse b w with
                | Ok () -> follow claimed rest
                | Error o -> finish o)
              else stall claimed a b
        end
  and stall _claimed a b =
    emit (Cr_obs.Trace.Stall { at = a; toward = b });
    if !retries >= policy.max_retries then finish (Sim.Dropped_at_fault (a, b))
    else if Hashtbl.mem stalls_seen (a, b) then finish Sim.Loop_detected
    else begin
      Hashtbl.replace stalls_seen (a, b) ();
      incr retries;
      match deflect b with
      | None -> finish (Sim.Dropped_at_fault (a, b))
      | Some (w, wt, _) -> (
          emit (Cr_obs.Trace.Deflect { at = a; via = w });
          match traverse w wt with
          | Error o -> finish o
          | Ok () -> (
              if !cur = dst then finish Sim.Delivered
              else begin
                emit (Cr_obs.Trace.Replan { at = !cur });
                match plan_route !cur with
                | Error o -> finish o
                | Ok r -> follow r.Scheme.delivered r.Scheme.walk
              end))
    end
  in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    { outcome = Sim.Invalid_hop "endpoint out of range"; walk = []; cost = 0.0; hops = 0;
      retries = 0; stretch = infinity }
  else begin
    walk_rev := [ src ];
    if not (Fault_plan.node_alive plan src) then finish (Sim.Dropped_at_fault (src, src))
    else if src = dst then finish Sim.Delivered
    else
      match plan_route src with
      | Error o -> finish o
      | Ok r -> follow r.Scheme.delivered r.Scheme.walk
  end
