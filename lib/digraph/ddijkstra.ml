module Heap = Cr_graph.Heap

type result = { source : int; dist : float array; parent : int array }

let run_on neighbors n s =
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create dist in
  dist.(s) <- 0.0;
  Heap.insert heap s;
  while not (Heap.is_empty heap) do
    let u = Heap.pop_min heap in
    let du = dist.(u) in
    if not settled.(u) then begin
      settled.(u) <- true;
      Array.iter
        (fun (v, w) ->
          if not settled.(v) then begin
            let dv = du +. w in
            if dv < dist.(v) then begin
              dist.(v) <- dv;
              parent.(v) <- u;
              Heap.insert_or_decrease heap v
            end
          end)
        (neighbors u)
    end
  done;
  { source = s; dist; parent }

let run g s = run_on (Digraph.out_neighbors g) (Digraph.n g) s

let run_reverse g s = run_on (Digraph.in_neighbors g) (Digraph.n g) s

let path_from_source res t =
  if res.dist.(t) = infinity then raise Not_found;
  let rec up v acc = if v = res.source then v :: acc else up res.parent.(v) (v :: acc) in
  up t []

let path_to_source res t =
  if res.dist.(t) = infinity then raise Not_found;
  (* reverse-search parents point one step closer to the source *)
  let rec down v acc = if v = res.source then List.rev (v :: acc) else down res.parent.(v) (v :: acc) in
  down t []
