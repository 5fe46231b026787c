type t = {
  source : int;
  dist : float array;
  sorted : (int * float) array; (* reachable nodes by (distance, index) *)
}

let of_dijkstra (res : Dijkstra.result) =
  let acc = ref [] in
  Array.iteri (fun v d -> if d < infinity then acc := (v, d) :: !acc) res.dist;
  let sorted = Array.of_list !acc in
  Array.sort
    (fun (v1, d1) (v2, d2) -> if d1 <> d2 then compare d1 d2 else compare v1 v2)
    sorted;
  { source = res.source; dist = res.dist; sorted }

let source t = t.source

let reachable t = Array.length t.sorted

(* Rightmost index with distance <= r, plus one. *)
let count_le t r =
  let lo = ref (-1) and hi = ref (Array.length t.sorted) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if snd t.sorted.(mid) <= r then lo := mid else hi := mid
  done;
  !lo + 1

let ball_size t r = count_le t r

let ball t r =
  let k = count_le t r in
  Array.init k (fun i -> fst t.sorted.(i))

let kth_distance t m =
  if m < 1 || m > reachable t then invalid_arg "Ball.kth_distance";
  snd t.sorted.(m - 1)

let closest t m =
  let k = min m (reachable t) in
  Array.init k (fun i -> fst t.sorted.(i))

let closest_in t m pred =
  let out = ref [] in
  let found = ref 0 in
  let n = Array.length t.sorted in
  let i = ref 0 in
  while !found < m && !i < n do
    let v, _ = t.sorted.(!i) in
    if pred v then begin
      out := v :: !out;
      incr found
    end;
    incr i
  done;
  Array.of_list (List.rev !out)

let distance t v = t.dist.(v)

