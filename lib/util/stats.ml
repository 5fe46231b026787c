type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let empty_summary =
  { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p95 = 0.; p99 = 0. }

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Loops, not folds: a fold boxes every element it reads and every
   partial sum.  Both sum left to right. *)
let mean (xs : float array) =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. xs.(i)
    done;
    !acc /. float_of_int n
  end

let stddev (xs : float array) =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let d = xs.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int n)
  end

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

(* the largest of [i]'s up to three sons in a heap of [l], or -1 when
   [i] has none: [Array.sort]'s [maxson], whose [Bottom i] is -1 *)
let[@inline] maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

(* [Array.sort Float.compare a], step for step: the stdlib's ternary
   heap sort with the comparison inlined, so it moves equal elements
   (-0.0 and 0.0, NaNs) exactly as that call does.  Handed to
   [Array.sort] as a closure, [Float.compare] boxes every element it
   reads.  The recursions are loops and the floats in flight are local
   variables, since a float passed to a function is boxed. *)
let sort_floats (a : float array) =
  let l = Array.length a in
  for i0 = ((l + 1) / 3) - 1 downto 0 do
    (* trickle: sink a.(i0) below every larger son *)
    let e = a.(i0) in
    let i = ref i0 and sinking = ref true in
    while !sinking do
      let j = maxson a l !i in
      if j >= 0 && Float.compare a.(j) e > 0 then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        sinking := false
      end
    done
  done;
  for top = l - 1 downto 2 do
    let e = a.(top) in
    a.(top) <- a.(0);
    (* bubble: pull the larger son up from the root to a leaf *)
    let i = ref 0 and j = ref (maxson a top 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a top !i
    done;
    (* trickle up: lift e from that leaf *)
    let rising = ref true in
    while !rising do
      let father = (!i - 1) / 3 in
      if Float.compare a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          rising := false
        end
      end
      else begin
        a.(!i) <- e;
        rising := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Without a NaN, and without both signed zeros, any two elements that
   [Float.compare] calls equal have the same bits, so every correct
   selection reads, at each rank, the bits the sort puts there. *)
let ties_share_bits (a : float array) =
  let nan = ref false and pos_zero = ref false and neg_zero = ref false in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if x <> x then nan := true
    else if x = 0.0 then if Float.sign_bit x then neg_zero := true else pos_zero := true
  done;
  not (!nan || (!pos_zero && !neg_zero))

(* Hoare's FIND as Wirth writes it, with a median-of-three pivot:
   permutes [a.(l..r)] so that [a.(k)] holds the value it holds sorted,
   with nothing larger before it and nothing smaller after it.  Both
   scans stop on an element equal to the pivot, so a sample of few
   distinct values still splits near the middle.  Gives up, returning
   false with [a.(l..r)] a permutation of itself, after
   [2 ceil(log2 (r - l + 1))] partitions.  [a] holds no NaN. *)
let select (a : float array) l r k =
  let l = ref l and r = ref r and budget = ref (2 * Bits.ceil_log2 (r - l + 1)) in
  while !l < !r && !budget > 0 do
    decr budget;
    let x0 = a.(!l) and x1 = a.((!l + !r) / 2) and x2 = a.(!r) in
    let x =
      if x0 < x1 then if x1 < x2 then x1 else if x0 < x2 then x2 else x0
      else if x0 < x2 then x0
      else if x1 < x2 then x2
      else x1
    in
    (* x is in a.(l..r), so each scan stops inside it *)
    let i = ref !l and j = ref !r in
    while !i <= !j do
      while a.(!i) < x do incr i done;
      while x < a.(!j) do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if !j < k then l := !i;
    if k < !i then r := !j
  done;
  !l >= !r

(* Places each of [ranks] (ascending) where the sort puts it, choosing
   each within the part right of the one before, so the selections sum
   to O(n); false if one gives up. *)
let select_ranks a ranks =
  let last = Array.length a - 1 in
  let rec go l = function
    | [] -> true
    | k :: ks -> if k < l then go l ks else select a l last k && go (k + 1) ks
  in
  go 0 ranks

(* The ranks [summarize] reads: the extremes and the two neighbours
   [percentile] interpolates between for each of its quantiles. *)
let summary_ranks n =
  let neighbours q =
    let lo = int_of_float (Float.floor (q *. float_of_int (n - 1))) in
    [ lo; min (lo + 1) (n - 1) ]
  in
  (0 :: List.concat_map neighbours [ 0.5; 0.9; 0.95; 0.99 ]) @ [ n - 1 ]

(* Every field is bit-identical to reading a copy sorted by
   [Array.sort Float.compare]: selection runs only where ties share
   their bits, and [sort_floats], that sort's exact moves, takes the
   rest and any selection that gives up. *)
let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let a = Array.copy xs in
  if not (ties_share_bits a && select_ranks a (summary_ranks n)) then sort_floats a;
  {
    count = n;
    mean = mean xs;
    stddev = stddev xs;
    min = a.(0);
    max = a.(n - 1);
    p50 = percentile a 0.5;
    p90 = percentile a 0.9;
    p95 = percentile a 0.95;
    p99 = percentile a 0.99;
  }

let histogram ~buckets xs =
  let nb = Array.length buckets in
  let counts = Array.make (nb + 1) 0 in
  let place x =
    let rec find i = if i >= nb then nb else if x <= buckets.(i) then i else find (i + 1) in
    find 0
  in
  Array.iter (fun x -> let i = place x in counts.(i) <- counts.(i) + 1) xs;
  counts

let cdf_at sorted x =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    (* binary search for the rightmost index with value <= x *)
    let lo = ref (-1) and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) <= x then lo := mid else hi := mid
    done;
    float_of_int (!lo + 1) /. float_of_int n
  end

let linear_fit pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    pts;
  let fn = float_of_int n in
  let denom = (fn *. !sxx) -. (!sx *. !sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate abscissae";
  let a = ((fn *. !sxy) -. (!sx *. !sy)) /. denom in
  let b = (!sy -. (a *. !sx)) /. fn in
  (a, b)
