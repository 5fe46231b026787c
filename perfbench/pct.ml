(* Percentiles that carry their sample count.  Nearest-rank on a sorted
   copy: the reported value is always one that was measured, never an
   interpolation between two. *)

type t = { p50 : float; p99 : float; count : int }

let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.rank: empty sample";
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (r - 1)))

let of_array xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  { p50 = rank a 0.5; p99 = rank a 0.99; count = Array.length a }

let of_list xs = of_array (Array.of_list xs)

(* A percentile is reported only when at least ten samples lie beyond
   it. *)
let p99_supported t = t.count >= 1000

let median xs = (of_list xs).p50

(* Samples taken in windows spread over a run: the p50 of every sample
   pooled, and the median over windows of each window's p99.  A burst
   of host interference a few hundred milliseconds long fills a good
   part of a pooled top 1%, but it moves the p99 of only the windows it
   falls in.  Every window must support its own p99. *)
let windowed windows =
  let p99s =
    List.map
      (fun w ->
        let p = of_array w in
        if not (p99_supported p) then invalid_arg "Pct.windowed: a window too short for a p99";
        p.p99)
      windows
  in
  { (of_array (Array.concat windows)) with p99 = median p99s }

let mean xs =
  match xs with
  | [] -> invalid_arg "Pct.mean: empty sample"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
