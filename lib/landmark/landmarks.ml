module Rng = Cr_util.Rng
module Ball = Cr_graph.Ball

type t = {
  n : int;
  k : int;
  rank : int array; (* rank.(v) = max j with v in C_j, in 0..k-1 *)
}

let build ~seed ~n ~k =
  if k < 1 then invalid_arg "Landmarks.build: k < 1";
  if n < 1 then invalid_arg "Landmarks.build: n < 1";
  let rng = Rng.create seed in
  let rank = Array.make n 0 in
  if k > 1 then begin
    let p = (float_of_int n /. Float.log (float_of_int (max 3 n))) ** (-1.0 /. float_of_int k) in
    for v = 0 to n - 1 do
      (* survive into C_1, C_2, ... independently with probability p each *)
      let rec climb j = if j < k - 1 && Rng.bernoulli rng p then climb (j + 1) else j in
      rank.(v) <- climb 0
    done
  end;
  { n; k; rank }

let n t = t.n

let k t = t.k

let rank t v = t.rank.(v)

let in_level t v j = j = 0 || (j < t.k && t.rank.(v) >= j)

let level t j =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if in_level t v j then acc := v :: !acc
  done;
  Array.of_list !acc

let level_size t j =
  let c = ref 0 in
  for v = 0 to t.n - 1 do
    if in_level t v j then incr c
  done;
  !c

let nearby t ball ~level ~cap = Ball.closest_in ball cap (fun v -> in_level t v level)

(* One closest-first scan: [found.(i)] counts the level-[i] landmarks
   seen so far, and a node belongs to S(u) while some level it is in
   still has room.  The scan stops once every level is full. *)
let nearby_set t ball ~cap =
  let found = Array.make t.k 0 in
  let full = ref 0 in
  let reach = Ball.reachable ball in
  let out = Array.make (min reach (t.k * cap)) 0 in
  let len = ref 0 in
  let m = ref 1 in
  while !full < t.k && !m <= reach do
    let v = Ball.kth ball !m in
    let hit = ref false in
    for i = 0 to t.rank.(v) do
      if found.(i) < cap then begin
        found.(i) <- found.(i) + 1;
        if found.(i) = cap then incr full;
        hit := true
      end
    done;
    if !hit then begin
      out.(!len) <- v;
      incr len
    end;
    incr m
  done;
  Array.sub out 0 !len

let highest_rank_in t members =
  Array.fold_left (fun acc v -> max acc t.rank.(v)) (-1) members

let center_in t ball ~radius =
  (* the ball is enumerated closest first, so the first node of the
     highest rank seen is the closest highest-rank landmark *)
  let best = ref (-1) in
  for m = 1 to Ball.ball_size ball radius do
    let v = Ball.kth ball m in
    if !best < 0 || t.rank.(v) > t.rank.(!best) then best := v
  done;
  if !best < 0 then None else Some !best

let lnn t = Float.log (float_of_int (max 3 t.n))

let claim1_threshold t j =
  let fk = float_of_int t.k and fj = float_of_int j in
  let fn = float_of_int t.n in
  4.0 *. (lnn t ** ((fk -. fj) /. fk)) *. (fn ** (fj /. fk))

let claim2_size_limit t j =
  let fk = float_of_int t.k and fj = float_of_int j in
  let fn = float_of_int t.n in
  4.0 *. (lnn t ** ((fk -. (fj +. 1.0)) /. fk)) *. (fn ** ((fj +. 2.0) /. fk))

let claim2_count_limit t =
  let fn = float_of_int t.n in
  16.0 *. (fn ** (2.0 /. float_of_int t.k)) *. lnn t

let check_claim1 t members j =
  if float_of_int (Array.length members) < claim1_threshold t j then true
  else Array.exists (fun v -> in_level t v j) members

let check_claim2 t members j =
  if float_of_int (Array.length members) >= claim2_size_limit t j then true
  else begin
    let count = Array.fold_left (fun acc v -> if in_level t v j then acc + 1 else acc) 0 members in
    float_of_int count <= claim2_count_limit t
  end
