module Apsp = Cr_graph.Apsp
module Ball = Cr_graph.Ball
module Graph = Cr_graph.Graph
module Bits = Cr_util.Bits

type t = {
  apsp : Apsp.t;
  k : int;
  log_delta : int;
  a : int array array; (* a.(u).(i) for i in 0..k *)
  dense : bool array array; (* dense.(u).(i) for i in 0..k-1 *)
  r_set : int list array; (* R(u), ascending *)
  levels : int array array; (* V_i members for i in 0..log_delta *)
}

let radius_of_exponent j = 2.0 ** float_of_int j

let build apsp ~k =
  if k < 1 then invalid_arg "Decomposition.build: k < 1";
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  let diameter = Apsp.diameter apsp in
  let log_delta = max 0 (int_of_float (Float.ceil (Float.log (Float.max 1.0 diameter) /. Float.log 2.0))) in
  let kappa = float_of_int (max 2 (Bits.ceil_pow (float_of_int (max 2 n)) (1.0 /. float_of_int k))) in
  let a = Array.make_matrix n (k + 1) 0 in
  for u = 0 to n - 1 do
    let ball = Apsp.ball apsp u in
    for i = 0 to k - 1 do
      let base = Ball.ball_size ball (radius_of_exponent a.(u).(i)) in
      let target = kappa *. float_of_int base in
      (* smallest positive j with |B(u, 2^j)| >= target, else log_delta *)
      let rec find j =
        if j > log_delta then log_delta
        else if float_of_int (Ball.ball_size ball (radius_of_exponent j)) >= target then j
        else find (j + 1)
      in
      a.(u).(i + 1) <- find 1
    done
  done;
  let dense = Array.make_matrix n (max 1 k) false in
  for u = 0 to n - 1 do
    for i = 0 to k - 1 do
      dense.(u).(i) <- a.(u).(i) < a.(u).(i + 1) && a.(u).(i + 1) <= a.(u).(i) + 3
    done
  done;
  let r_set = Array.make n [] in
  for u = 0 to n - 1 do
    let marks = Array.make (log_delta + 2) false in
    Array.iter
      (fun av ->
        (* i with -1 <= av - i <= 4, i.e. av - 4 <= i <= av + 1 *)
        for i = max 0 (av - 4) to min log_delta (av + 1) do
          marks.(i) <- true
        done)
      a.(u);
    let acc = ref [] in
    for i = log_delta downto 0 do
      if marks.(i) then acc := i :: !acc
    done;
    r_set.(u) <- !acc
  done;
  let levels = Array.make (log_delta + 1) [||] in
  let buckets = Array.make (log_delta + 1) [] in
  for u = n - 1 downto 0 do
    List.iter (fun i -> buckets.(i) <- u :: buckets.(i)) r_set.(u)
  done;
  for i = 0 to log_delta do
    levels.(i) <- Array.of_list buckets.(i)
  done;
  { apsp; k; log_delta; a; dense; r_set; levels }

let log_delta t = t.log_delta

let range t u i =
  if i < 0 || i > t.k then invalid_arg "Decomposition.range: level out of range";
  t.a.(u).(i)

let is_dense t u i =
  if i < 0 || i >= t.k then invalid_arg "Decomposition.is_dense: level out of range";
  t.dense.(u).(i)

let neighborhood t u i =
  if i = 0 then [| u |]
  else Ball.ball (Apsp.ball t.apsp u) (radius_of_exponent t.a.(u).(i))

let neighborhood_size t u i =
  if i = 0 then 1
  else Ball.ball_size (Apsp.ball t.apsp u) (radius_of_exponent t.a.(u).(i))

let f_set t u i =
  Ball.ball (Apsp.ball t.apsp u) (radius_of_exponent (t.a.(u).(i) - 1))

let e_set t u i =
  if i >= t.k then invalid_arg "Decomposition.e_set: needs a(u,i+1)";
  Ball.ball (Apsp.ball t.apsp u) (radius_of_exponent t.a.(u).(i + 1) /. 6.0)

let range_set t u = List.sort_uniq compare (Array.to_list t.a.(u))

let extended_range_set t u = t.r_set.(u)

let in_level_graph t u i = List.mem i t.r_set.(u)

let level_nodes t i =
  if i < 0 || i > t.log_delta then [||] else t.levels.(i)

let needed_levels t =
  let acc = ref [] in
  for i = t.log_delta downto 0 do
    if Array.length t.levels.(i) > 0 then acc := i :: !acc
  done;
  !acc

let dense_level_count t u =
  let c = ref 0 in
  for i = 0 to t.k - 1 do
    if t.dense.(u).(i) then incr c
  done;
  !c
