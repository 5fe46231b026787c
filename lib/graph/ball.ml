(* A view of one Dijkstra result: [order] already lists the reachable
   nodes by (distance, index), so nothing is copied or sorted here. *)
type t = { source : int; dist : float array; order : int array }

let of_dijkstra (res : Dijkstra.result) =
  { source = res.source; dist = res.dist; order = res.order }

let source t = t.source

let reachable t = Array.length t.order

(* Rightmost index with distance <= r, plus one. *)
let count_le t r =
  let lo = ref (-1) and hi = ref (Array.length t.order) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.dist.(t.order.(mid)) <= r then lo := mid else hi := mid
  done;
  !lo + 1

let ball_size t r = count_le t r

let ball t r = Array.sub t.order 0 (count_le t r)

let kth t m =
  if m < 1 || m > reachable t then invalid_arg "Ball.kth";
  t.order.(m - 1)

let kth_distance t m =
  if m < 1 || m > reachable t then invalid_arg "Ball.kth_distance";
  t.dist.(t.order.(m - 1))

let closest t m = Array.sub t.order 0 (min m (reachable t))

let closest_in t m pred =
  let out = ref [] in
  let found = ref 0 in
  let n = Array.length t.order in
  let i = ref 0 in
  while !found < m && !i < n do
    let v = t.order.(!i) in
    if pred v then begin
      out := v :: !out;
      incr found
    end;
    incr i
  done;
  Array.of_list (List.rev !out)

let distance t v = t.dist.(v)
