(* Query workload generation for the batch engine.

   The generator must be deterministic in the seed *and* independent of
   how many domains produce it, so queries are drawn in fixed logical
   blocks of [block_size]: block b always uses its own splitmix64
   stream derived from (seed, b), whichever domain executes it.  A pool
   only changes which domain fills which block, never the contents. *)

module Rng = Cr_util.Rng
module Apsp = Cr_graph.Apsp

type dist = Uniform | Zipf of float

let dist_to_string = function
  | Uniform -> "uniform"
  | Zipf s -> Printf.sprintf "zipf:%g" s

let dist_of_string s =
  match String.split_on_char ':' s with
  | [ "uniform" ] -> Ok Uniform
  | [ "zipf" ] -> Ok (Zipf 1.1)
  | [ "zipf"; e ] -> (
      match float_of_string_opt e with
      | Some e when e > 0.0 -> Ok (Zipf e)
      | _ -> Error (Printf.sprintf "invalid zipf exponent %S (expected a positive float)" e))
  | _ -> Error (Printf.sprintf "unknown distribution %S (expected uniform, zipf or zipf:S)" s)

let block_size = 1024

(* distinct splitmix64 stream per (seed, block): Rng.create mixes its
   argument, so consecutive block ids land on unrelated streams *)
let block_rng ~seed b = Rng.create ((seed * 1_000_003) + b)

type sampler = { n : int; cdf : float array option (* None = uniform *) }

let make_sampler dist ~n =
  match dist with
  | Uniform -> { n; cdf = None }
  | Zipf s ->
      (* node index = popularity rank: node 0 is the hottest *)
      let w = Array.init n (fun i -> float_of_int (i + 1) ** -.s) in
      let total = Array.fold_left ( +. ) 0.0 w in
      let acc = ref 0.0 in
      let cdf =
        Array.map
          (fun x ->
            acc := !acc +. (x /. total);
            !acc)
          w
      in
      cdf.(n - 1) <- 1.0;
      { n; cdf = Some cdf }

(* first index with cdf.(i) >= u; cdf.(n-1) is pinned to 1.0 so every
   u <= 1.0 lands in range.  The annotation makes each probe a float
   comparison: left polymorphic, it boxes the cell and calls the
   generic compare. *)
let search_cdf (cdf : float array) (u : float) =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let draw sampler rng =
  match sampler.cdf with
  | None -> Rng.int rng sampler.n
  | Some cdf -> search_cdf cdf (Rng.float rng 1.0)

let rank_of dist ~n u =
  if n < 1 then invalid_arg "Workload.rank_of: n < 1";
  let u = Float.max 0.0 (Float.min u 1.0) in
  match (make_sampler dist ~n).cdf with
  | None -> min (n - 1) (int_of_float (u *. float_of_int n))
  | Some cdf -> search_cdf cdf u

exception Sample_exhausted

(* A top-level recursion: local closures here would be allocated for
   every pair. *)
let rec draw_pair connected_in sampler rng tries =
  if tries > 10_000 then raise Sample_exhausted;
  let s = draw sampler rng and d = draw sampler rng in
  let ok =
    s <> d
    &&
    match connected_in with
    | None -> true
    | Some apsp -> Apsp.distance apsp s d < infinity
  in
  if ok then (s, d) else draw_pair connected_in sampler rng (tries + 1)

let () =
  Printexc.register_printer (function
    | Sample_exhausted ->
        Some
          "Workload.Sample_exhausted: could not draw a valid (src, dst) pair in 10000 tries \
           (graph too small or too disconnected)"
    | _ -> None)

let generate ?pool ?connected_in dist ~seed ~n ~count =
  if n < 2 then invalid_arg "Workload.generate: n < 2";
  if count < 0 then invalid_arg "Workload.generate: negative count";
  let sampler = make_sampler dist ~n in
  let out = Array.make (max count 1) (0, 0) in
  let nblocks = (count + block_size - 1) / block_size in
  let fill b =
    let rng = block_rng ~seed b in
    let hi = min count ((b + 1) * block_size) in
    for q = b * block_size to hi - 1 do
      out.(q) <- draw_pair connected_in sampler rng 0
    done
  in
  (match pool with
  | None -> for b = 0 to nblocks - 1 do fill b done
  | Some pool -> Cr_util.Domain_pool.parallel_for ~chunk:1 pool ~n:nblocks fill);
  if count = 0 then [||] else Array.sub out 0 count
