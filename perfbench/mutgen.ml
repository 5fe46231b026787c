(* Seeded churn: a list of mutations that all apply in order and keep
   the graph connected.

   A step is either a [setw] of an existing edge to a new integer weight
   in 1..7, or a [linkdown] of an edge that lies on a cycle followed by
   the [linkup] that restores it with a fresh weight.  Weights stay at
   least 1, so the daemon's normalized-graph check accepts every one,
   and no step disconnects the graph, so every route stays
   deliverable. *)

module Graph = Cr_graph.Graph
module Rng = Cr_util.Rng

let max_weight = 7

let new_weight rng current =
  let rec pick () =
    let w = float_of_int (1 + Rng.int rng max_weight) in
    if w = current then pick () else w
  in
  pick ()

let removable g (u, v, _) =
  Cr_graph.Component.is_connected (Graph.apply g (Graph.Link_down (u, v)))

let generate ~seed g ~count =
  let rng = Rng.create seed in
  let rec go g acc left =
    if left <= 0 then List.rev acc
    else begin
      let edges = Array.of_list (Graph.edges g) in
      (* a link flap takes an edge that lies on a cycle, found by trying
         the edges in a seeded order *)
      let flap =
        if left >= 2 && Rng.bool rng then begin
          let order = Array.copy edges in
          Rng.shuffle rng order;
          Array.find_opt (removable g) order
        end
        else None
      in
      match flap with
      | Some (u, v, _) ->
          let down = Graph.Link_down (u, v) in
          let up = Graph.Link_up (u, v, float_of_int (1 + Rng.int rng max_weight)) in
          go (Graph.apply (Graph.apply g down) up) (up :: down :: acc) (left - 2)
      | None ->
          let u, v, w = edges.(Rng.int rng (Array.length edges)) in
          let mu = Graph.Set_weight (u, v, new_weight rng w) in
          go (Graph.apply g mu) (mu :: acc) (left - 1)
    end
  in
  go g [] count
