(* Witness tables, the stored half of both path-reporting oracles: per
   node u, a hash table from target w to d(u, w) and u's neighbor toward
   w on the shortest-path tree of w, i.e. (Apsp.sssp w).parent.(u).

   Stitching a walk needs the chain invariant: if (u, w) is stored then
   (x, w) is stored for every x on the tree path u → w.  Analytically
   the oracles' membership tests give it, but floating-point distance
   sums can break it by an ulp, so the table is closed constructively:
   every missing intermediate entry on a stored chain is inserted.  An
   entry's value is a pure function of (x, w), so the closed table does
   not depend on insertion order. *)

module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra

type entry = { dist : float; next : int }

(* Keys are node indices, so they hash to themselves: no call into the
   runtime's generic hash or compare per probe.  Nothing reads a
   table's iteration order. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x land max_int
end)

type t = entry Tbl.t array

let create n = Array.init n (fun _ -> Tbl.create 16)

let add t sw w u =
  Tbl.replace t.(u) w { dist = sw.Dijkstra.dist.(u); next = sw.Dijkstra.parent.(u) }

let find t u w = Tbl.find_opt t.(u) w

let close_chain t sw w u =
  let added = ref 0 in
  let x = ref u in
  let steps = ref 0 in
  let n = Array.length sw.Dijkstra.dist in
  while !x <> w do
    if !steps > n then invalid_arg "Witness: cyclic parent chain";
    incr steps;
    let nx = sw.Dijkstra.parent.(!x) in
    if nx < 0 then invalid_arg "Witness: broken parent chain";
    if not (Tbl.mem t.(!x) w) then begin
      Tbl.replace t.(!x) w { dist = sw.Dijkstra.dist.(!x); next = nx };
      incr added
    end;
    x := nx
  done;
  if not (Tbl.mem t.(w) w) then begin
    Tbl.replace t.(w) w { dist = 0.0; next = -1 };
    incr added
  end;
  !added

let close t apsp =
  let closed = ref 0 in
  for w = 0 to Array.length t - 1 do
    let sw = Apsp.sssp apsp w in
    for u = 0 to Array.length t - 1 do
      if Tbl.mem t.(u) w then closed := !closed + close_chain t sw w u
    done
  done;
  !closed

let chain t x w =
  let rec go x acc steps =
    if steps > Array.length t then invalid_arg "Witness: cyclic witness chain";
    if x = w then List.rev (w :: acc)
    else
      match Tbl.find_opt t.(x) w with
      | None -> invalid_arg "Witness: closure invariant broken"
      | Some e -> go e.next (x :: acc) (steps + 1)
  in
  go x [] 0

let entries t = Array.fold_left (fun acc b -> acc + Tbl.length b) 0 t

let node_entries t u = Tbl.length t.(u)
