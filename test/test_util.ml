(* Tests for the cr_util library: PRNG, statistics, bit accounting,
   digit hashing, table rendering, CRC32 checksums. *)

module Rng = Cr_util.Rng
module Stats = Cr_util.Stats
module Bits = Cr_util.Bits
module Digit_hash = Cr_util.Digit_hash
module Ascii_table = Cr_util.Ascii_table

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_covers () =
  let r = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int r 5) <- true
  done;
  Array.iteri (fun i s -> checkb (Printf.sprintf "value %d seen" i) true s) seen

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    checkb "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create 5 in
  for _ = 1 to 50 do
    checkb "p=0 false" false (Rng.bernoulli r 0.0);
    checkb "p=1 true" true (Rng.bernoulli r 1.0)
  done

let test_rng_bernoulli_rate () =
  let r = Rng.create 13 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  checkb "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_split_independent () =
  let a = Rng.create 99 in
  let b = Rng.split a in
  let xs = Array.init 20 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 20 (fun _ -> Rng.bits64 b) in
  checkb "split streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 21 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_shuffle_permutation () =
  let r = Rng.create 31 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let r = Rng.create 37 in
  (* small m: Floyd path *)
  let s = Rng.sample_without_replacement r 5 1000 in
  checki "size" 5 (Array.length s);
  let tbl = Hashtbl.create 5 in
  Array.iter
    (fun v ->
      checkb "in range" true (v >= 0 && v < 1000);
      checkb "distinct" false (Hashtbl.mem tbl v);
      Hashtbl.replace tbl v ())
    s;
  (* large m: shuffle path *)
  let s2 = Rng.sample_without_replacement r 90 100 in
  checki "size2" 90 (Array.length s2);
  let tbl2 = Hashtbl.create 90 in
  Array.iter (fun v -> Hashtbl.replace tbl2 v ()) s2;
  checki "distinct2" 90 (Hashtbl.length tbl2);
  (* edge: m = n *)
  let s3 = Rng.sample_without_replacement r 10 10 in
  let sorted = Array.copy s3 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "m=n is permutation" (Array.init 10 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  checkf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  checkf "mean empty" 0.0 (Stats.mean [||])

let test_stats_stddev () =
  checkf "constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  checkf "known" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p50" 3.0 (Stats.percentile xs 0.5);
  checkf "p100" 5.0 (Stats.percentile xs 1.0);
  checkf "interp" 1.5 (Stats.percentile xs 0.125)

let test_stats_percentile_edges () =
  (* a single-element sample answers every quantile with that element *)
  let one = [| 7.5 |] in
  checkf "single p0" 7.5 (Stats.percentile one 0.0);
  checkf "single p50" 7.5 (Stats.percentile one 0.5);
  checkf "single p100" 7.5 (Stats.percentile one 1.0);
  (* q = 0 and q = 1 are exact order statistics, never interpolated *)
  let xs = [| -3.0; 4.0; 10.0 |] in
  checkf "q0 is min" (-3.0) (Stats.percentile xs 0.0);
  checkf "q1 is max" 10.0 (Stats.percentile xs 1.0);
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 0.5))

let test_stats_summarize () =
  let s = Stats.summarize [| 3.0; 1.0; 2.0 |] in
  checki "count" 3 s.Stats.count;
  checkf "min" 1.0 s.Stats.min;
  checkf "max" 3.0 s.Stats.max;
  checkf "mean" 2.0 s.Stats.mean;
  checkf "p50" 2.0 s.Stats.p50

let test_stats_summarize_empty () =
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize [||]))

(* The summary as [Array.sort Float.compare] and folds compute it:
   the reference [Stats.summarize] must match field for field. *)
let reference_summary xs =
  let n = Array.length xs in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let stddev =
    if n < 2 then 0.0
    else
      sqrt
        (Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
        /. float_of_int n)
  in
  let pct q =
    if n = 1 then sorted.(0)
    else begin
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (lo + 1) (n - 1) in
      sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
    end
  in
  [ mean; stddev; sorted.(0); sorted.(n - 1); pct 0.5; pct 0.9; pct 0.95; pct 0.99 ]

(* Samples of 1-5000 values drawn from a small pool (so duplicates are
   common) holding both zeros, both infinities and NaN, mixed with
   fresh random floats; every other sample is non-negative, so its
   minimum is a zero of either sign.  Fields agree under [Float.equal]
   and, when not NaN, in sign, so -0.0 and 0.0 must also land where the
   reference puts them.  A NaN's sign bit follows the operand order the
   compiler picks for [+.], so it is not compared.

   Then inputs that stress selection, at sizes up to 10^5: sorted,
   reverse-sorted, all-equal, two-valued, organ-pipe, and Musser's
   median-of-3 killer.  The last two drive the selection past its depth
   bound at the larger sizes, so its fallback is checked too. *)
let test_stats_summarize_matches_sort () =
  let agree label xs =
    let n = Array.length xs in
    let bits = Array.map Int64.bits_of_float xs in
    let s = Stats.summarize xs in
    checki "count" n s.Stats.count;
    if Array.map Int64.bits_of_float xs <> bits then
      Alcotest.failf "%s (n = %d): input changed" label n;
    List.iter2
      (fun (field, got) want ->
        let same =
          Float.equal got want && (Float.is_nan got || Float.sign_bit got = Float.sign_bit want)
        in
        if not same then Alcotest.failf "%s (n = %d): %s = %h, reference %h" label n field got want)
      [ ("mean", s.Stats.mean); ("stddev", s.Stats.stddev); ("min", s.Stats.min);
        ("max", s.Stats.max); ("p50", s.Stats.p50); ("p90", s.Stats.p90);
        ("p95", s.Stats.p95); ("p99", s.Stats.p99) ]
      (reference_summary xs)
  in
  let rng = Rng.create 2024 in
  let pool =
    [| -0.0; 0.0; infinity; neg_infinity; nan; 1.0; -1.0; 2.5; 1e300; -1e-300; 3.0; 3.0 |]
  in
  let non_negative = [| -0.0; 0.0; 0.0; -0.0; infinity; 1.0; 2.5; 3.0 |] in
  let value trial =
    let pool = if trial mod 2 = 0 then non_negative else pool in
    match Rng.int rng 3 with
    | 0 -> pool.(Rng.int rng (Array.length pool))
    | 1 -> if trial mod 2 = 0 then Rng.float rng 5.0 else Rng.float rng 10.0 -. 5.0
    | _ -> float_of_int (Rng.int rng 7)
  in
  for trial = 1 to 300 do
    let n = if trial mod 50 = 0 then 1 + Rng.int rng 5000 else 1 + Rng.int rng 200 in
    agree (Printf.sprintf "trial %d" trial) (Array.init n (fun _ -> value trial))
  done;
  (* 1, 3, 5, ..., k-1 interleaved with k+1, k+3, ..., 2k-1, then
     2, 4, ..., 2k: Musser's (1997) sequence against pivots taken as
     the median of first, middle and last, for n = 2k with k even *)
  let killer n i =
    let k = n / 2 in
    if i >= k then float_of_int (2 * (i - k + 1))
    else if i mod 2 = 0 then float_of_int (i + 1)
    else float_of_int (k + i)
  in
  List.iter
    (fun (family, value) ->
      List.iter
        (fun n -> agree family (Array.init n (value n)))
        [ 1; 2; 3; 4; 7; 64; 1000; 4096; 65_536; 99_999; 100_000 ])
    [ ("sorted", fun _ i -> float_of_int i); ("reverse-sorted", fun n i -> float_of_int (n - i));
      ("all-equal", fun _ _ -> 2.5); ("two-valued", fun _ i -> if i mod 3 = 0 then 1.0 else 4.0);
      ("organ-pipe", fun n i -> float_of_int (min i (n - 1 - i))); ("median-of-3 killer", killer) ]

(* A summary of 10^5 floats works in place in one copy: no element or
   partial sum is boxed. *)
let test_stats_summarize_allocation () =
  let rng = Rng.create 7 in
  let xs = Array.init 100_000 (fun _ -> Rng.float rng 100.0) in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Stats.summarize xs));
  let words = Gc.minor_words () -. w0 in
  if words >= 300_000.0 then Alcotest.failf "summarize allocated %.0f minor words" words

let test_stats_histogram () =
  let counts = Stats.histogram ~buckets:[| 1.0; 2.0 |] [| 0.5; 1.0; 1.5; 2.5; 3.0 |] in
  Alcotest.(check (array int)) "buckets" [| 2; 1; 2 |] counts

let test_stats_cdf () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "below" 0.0 (Stats.cdf_at xs 0.5);
  checkf "mid" 0.5 (Stats.cdf_at xs 2.0);
  checkf "above" 1.0 (Stats.cdf_at xs 10.0)

let test_stats_linear_fit () =
  let a, b = Stats.linear_fit [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |] in
  checkf "slope" 2.0 a;
  checkf "intercept" 1.0 b

let test_stats_ratio () =
  checkf "plain" 0.5 (Stats.ratio 1 2);
  checkf "zero numerator" 0.0 (Stats.ratio 0 7);
  (* the zero-total case every hit-rate field hits on an empty batch *)
  checkf "zero denominator" 0.0 (Stats.ratio 5 0)

(* ------------------------------------------------------------------ *)
(* Ttcache *)

module Ttcache = Cr_util.Ttcache

let test_ttcache_basics () =
  let t = Ttcache.create ~capacity:100 () in
  checki "capacity rounds up to a power of two" 128 (Ttcache.capacity t);
  checkb "miss on empty" true (Ttcache.find t ~gen:0 ~key:7 = None);
  Ttcache.add t ~gen:0 ~key:7 42;
  checkb "hit returns the stored value" true (Ttcache.find t ~gen:0 ~key:7 = Some 42);
  checkb "other key still misses" true (Ttcache.find t ~gen:0 ~key:8 = None);
  let s = Ttcache.stats t in
  checki "hits counted" 1 s.Ttcache.hits;
  checki "misses counted" 2 s.Ttcache.misses;
  checki "stats capacity" 128 s.Ttcache.capacity;
  (* memo: a hit never recomputes, a miss computes once and stores *)
  checki "memo hit" 42 (Ttcache.memo t ~gen:0 ~key:7 (fun () -> Alcotest.fail "recomputed a hit"));
  checki "memo miss computes" 9 (Ttcache.memo t ~gen:0 ~key:9 (fun () -> 9));
  checkb "and stores" true (Ttcache.find t ~gen:0 ~key:9 = Some 9);
  checkb "non-positive capacity rejected" true
    (try
       ignore (Ttcache.create ~capacity:0 () : unit Ttcache.t);
       false
     with Invalid_argument _ -> true)

let test_ttcache_generation_invalidates () =
  let t = Ttcache.create ~capacity:64 () in
  Ttcache.add t ~gen:0 ~key:3 30;
  checkb "hit in its own generation" true (Ttcache.find t ~gen:0 ~key:3 = Some 30);
  (* bumping the generation is O(1) invalidation: no array touch, the
     old entry just stops matching *)
  checkb "stale generation misses" true (Ttcache.find t ~gen:1 ~key:3 = None);
  Ttcache.add t ~gen:1 ~key:3 31;
  checkb "fresh generation hit" true (Ttcache.find t ~gen:1 ~key:3 = Some 31);
  checkb "old generation stays dead" true (Ttcache.find t ~gen:0 ~key:3 = None);
  let s = Ttcache.stats t in
  checkb "stale-slot reclaim counted as aged" true (s.Ttcache.aged >= 1)

let test_ttcache_salt_spreads () =
  (* same keys, different salts: both tables answer identically even
     though their bucket layouts differ *)
  let a = Ttcache.create ~salt:1 ~capacity:32 ()
  and b = Ttcache.create ~salt:2 ~capacity:32 () in
  for key = 0 to 19 do
    Ttcache.add a ~gen:0 ~key (key * 11);
    Ttcache.add b ~gen:0 ~key (key * 11)
  done;
  for key = 0 to 19 do
    let va = Ttcache.find a ~gen:0 ~key and vb = Ttcache.find b ~gen:0 ~key in
    checkb "same hit set semantics" true
      (match (va, vb) with
      | Some x, Some y -> x = key * 11 && y = key * 11
      | Some x, None | None, Some x -> x = key * 11
      | None, None -> true)
  done

(* A probe allocates no closure: a miss allocates nothing, a hit only
   the [Some] it returns, and a [memo] miss only that and the entry it
   stores. *)
let test_ttcache_probe_allocation () =
  let t = Ttcache.create ~capacity:4096 () in
  for key = 0 to 999 do
    Ttcache.add t ~gen:0 ~key key
  done;
  let words_per_call f =
    let w0 = Gc.minor_words () in
    for key = 0 to 9_999 do
      ignore (Sys.opaque_identity (f key))
    done;
    (Gc.minor_words () -. w0) /. 10_000.0
  in
  let compute = Sys.opaque_identity (fun () -> 0) in
  let hit = words_per_call (fun key -> Ttcache.find t ~gen:0 ~key:(key mod 1000)) in
  let miss = words_per_call (fun key -> Ttcache.find t ~gen:1 ~key) in
  let memo_miss = words_per_call (fun key -> Ttcache.memo t ~gen:2 ~key compute) in
  (* exactly 2, 0 and 6 words here; a closure per probe costs 8 *)
  if hit > 3.0 || miss > 1.0 || memo_miss > 8.0 then
    Alcotest.failf "words per probe: hit %.2f, miss %.2f, memo miss %.2f" hit miss memo_miss

(* N domains hammer one table with overlapping keys while marching
   through generations.  Every stored value encodes its (key, gen), so
   a single counter catches torn entries, cross-key mixups and
   stale-generation hits alike: a reader memoizing generation g must
   get exactly [value key g], whether from a hit or from its own
   computation, never anything else. *)
let test_ttcache_concurrent_stress () =
  let t = Ttcache.create ~capacity:256 () in
  let value key gen = (key * 1_000_003) + (gen * 7919) in
  let wrong = Atomic.make 0 in
  let worker d () =
    let rng = Rng.create (100 + d) in
    for gen = 0 to 2 do
      for _ = 1 to 5_000 do
        let key = Rng.int rng 64 in
        if Ttcache.memo t ~gen ~key (fun () -> value key gen) <> value key gen then
          Atomic.incr wrong
      done
    done
  in
  let ds = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  checki "no torn, cross-key or cross-generation value" 0 (Atomic.get wrong);
  (* monotone generation semantics: a bump past everything written
     leaves nothing findable *)
  for key = 0 to 63 do
    checkb "post-bump miss" true (Ttcache.find t ~gen:99 ~key = None)
  done;
  let s = Ttcache.stats t in
  checkb "contended table still served hits" true (s.Ttcache.hits > 0)

(* ------------------------------------------------------------------ *)
(* Jsonl *)

module Jsonl = Cr_util.Jsonl

let checks = Alcotest.(check string)

let test_jsonl_float_finite () =
  checks "integral" "1.0" (Jsonl.float 1.0);
  checks "negative integral" "-2.0" (Jsonl.float (-2.0));
  checks "fraction" "1.5" (Jsonl.float 1.5);
  (* negative zero still renders as a plain number *)
  checks "negative zero" "-0.0" (Jsonl.float (-0.0))

let test_jsonl_float_non_finite () =
  (* JSON has no non-finite numbers: the convention (DESIGN.md §7) is
     null, never the invalid tokens "inf"/"nan" *)
  checks "inf" "null" (Jsonl.float infinity);
  checks "neg inf" "null" (Jsonl.float neg_infinity);
  checks "nan" "null" (Jsonl.float Float.nan)

let test_jsonl_non_finite_rows_validate () =
  (* the exact shape a failed route produces: stretch = infinity *)
  let row =
    Jsonl.obj
      [
        ("scheme", Jsonl.str "agm06");
        ("delivered", Jsonl.bool false);
        ("stretch", Jsonl.float infinity);
        ("stretch_p99", Jsonl.float Float.nan);
        ("cost", Jsonl.float (-0.0));
      ]
  in
  (match Jsonl.validate row with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "row with non-finite floats must stay valid JSON: %s" msg);
  checkb "no inf token" false
    (let rec find i =
       i + 3 <= String.length row && (String.sub row i 3 = "inf" || find (i + 1))
     in
     find 0)

let test_jsonl_validate () =
  let ok s = checkb (Printf.sprintf "accepts %s" s) true (Jsonl.validate s = Ok ()) in
  let bad s = checkb (Printf.sprintf "rejects %s" s) true (Result.is_error (Jsonl.validate s)) in
  ok "null";
  ok "true";
  ok "-12.5e3";
  ok "\"a \\\"quoted\\\" string\"";
  ok "[1,2,[],{\"k\":null}]";
  ok "{\"a\":1,\"b\":[true,false],\"c\":{\"d\":\"e\"}}";
  ok "  {\"spaced\" : 1}  ";
  bad "";
  bad "inf";
  bad "nan";
  bad "{\"stretch\":inf}";
  bad "{\"a\":1,}";
  bad "[1 2]";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "{\"a\":1} trailing";
  bad "01";
  bad "1."

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with exception End_of_file -> List.rev acc | l -> go (l :: acc)
  in
  let ls = go [] in
  close_in ic;
  ls

let test_jsonl_writer_flushes_per_line () =
  let path = Filename.temp_file "crwriter" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Jsonl.Writer.create path in
      checkb "path" true (Jsonl.Writer.path w = path);
      Jsonl.Writer.write w "{\"a\":1}";
      Jsonl.Writer.write w "{\"b\":2}";
      (* flushed per line: both records visible before close, so a
         signal arriving now cannot truncate the last line *)
      Alcotest.(check (list string)) "visible before close" [ "{\"a\":1}"; "{\"b\":2}" ]
        (read_lines path);
      Jsonl.Writer.close w;
      Alcotest.(check (list string)) "unchanged by close" [ "{\"a\":1}"; "{\"b\":2}" ]
        (read_lines path))

let test_jsonl_flush_all_writers () =
  let path = Filename.temp_file "crwriter" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Jsonl.Writer.create path in
      Jsonl.Writer.write w "{\"c\":3}";
      (* the registry walk of the signal handlers: must not raise, and
         closed writers must have dropped out of the registry *)
      Jsonl.flush_all_writers ();
      checki "still one line" 1 (List.length (read_lines path));
      Jsonl.Writer.close w;
      Jsonl.flush_all_writers ())

(* ------------------------------------------------------------------ *)
(* Domain_pool shared lifecycle *)

module Pool = Cr_util.Domain_pool

let pool_sums_correctly () =
  let p = Pool.shared () in
  let acc = Atomic.make 0 in
  Pool.parallel_for p ~n:1000 (fun i -> ignore (Atomic.fetch_and_add acc i));
  checki "sum" (999 * 1000 / 2) (Atomic.get acc)

let test_pool_shutdown_idempotent () =
  pool_sums_correctly ();
  Pool.shutdown_shared ();
  Pool.shutdown_shared () (* second shutdown is a no-op *);
  (* the shared pool re-initializes transparently after shutdown *)
  pool_sums_correctly ();
  Pool.shutdown_shared ()

(* ------------------------------------------------------------------ *)
(* Bits *)

let test_bits_for () =
  checki "0" 0 (Bits.bits_for 0);
  checki "1" 1 (Bits.bits_for 1);
  checki "2" 1 (Bits.bits_for 2);
  checki "3" 2 (Bits.bits_for 3);
  checki "256" 8 (Bits.bits_for 256);
  checki "257" 9 (Bits.bits_for 257)

let test_ceil_log2 () =
  checki "1" 0 (Bits.ceil_log2 1);
  checki "2" 1 (Bits.ceil_log2 2);
  checki "1024" 10 (Bits.ceil_log2 1024);
  checki "1025" 11 (Bits.ceil_log2 1025)

let test_ceil_pow () =
  checki "sqrt" 32 (Bits.ceil_pow 1024.0 0.5);
  checki "cube root" 10 (Bits.ceil_pow 1000.0 (1.0 /. 3.0));
  checki "identity" 7 (Bits.ceil_pow 7.0 1.0)

(* ------------------------------------------------------------------ *)
(* Digit_hash *)

let test_hash_deterministic () =
  let h = Digit_hash.create ~seed:1 ~sigma:8 ~digits:4 in
  Alcotest.(check (array int)) "same" (Digit_hash.hash h 12345) (Digit_hash.hash h 12345)

let test_hash_digit_range () =
  let h = Digit_hash.create ~seed:2 ~sigma:5 ~digits:3 in
  for id = 0 to 999 do
    Array.iter (fun d -> checkb "digit in range" true (d >= 0 && d < 5)) (Digit_hash.hash h id)
  done

let test_hash_digit_consistency () =
  let h = Digit_hash.create ~seed:3 ~sigma:7 ~digits:5 in
  for id = 0 to 99 do
    let full = Digit_hash.hash h id in
    Array.iteri (fun i d -> checki "digit matches" d (Digit_hash.digit h id i)) full
  done

let test_hash_prefix_matches () =
  let h = Digit_hash.create ~seed:4 ~sigma:6 ~digits:4 in
  let full = Digit_hash.hash h 42 in
  for j = 0 to 4 do
    checkb "own prefix matches" true (Digit_hash.prefix_matches h 42 full j)
  done;
  let other = Array.map (fun d -> (d + 1) mod 6) full in
  checkb "mismatch detected" false (Digit_hash.prefix_matches h 42 other 1)

let test_hash_uniformity () =
  (* First digit over sigma=4 should be roughly uniform over many ids. *)
  let h = Digit_hash.create ~seed:5 ~sigma:4 ~digits:2 in
  let counts = Array.make 4 0 in
  let trials = 40_000 in
  for id = 0 to trials - 1 do
    let d = Digit_hash.digit h id 0 in
    counts.(d) <- counts.(d) + 1
  done;
  Array.iter
    (fun c ->
      let rate = float_of_int c /. float_of_int trials in
      checkb "roughly uniform" true (Float.abs (rate -. 0.25) < 0.02))
    counts

let test_hash_seed_sensitivity () =
  let h1 = Digit_hash.create ~seed:10 ~sigma:16 ~digits:4 in
  let h2 = Digit_hash.create ~seed:11 ~sigma:16 ~digits:4 in
  let diff = ref 0 in
  for id = 0 to 99 do
    if Digit_hash.hash h1 id <> Digit_hash.hash h2 id then incr diff
  done;
  checkb "most hashes differ across seeds" true (!diff > 90)

let test_hash_storage_bits () =
  checki "log^2 n" 100 (Digit_hash.storage_bits ~n:1024)

(* ------------------------------------------------------------------ *)
(* Poly_hash (Carter-Wegman reference family) *)

module Poly_hash = Cr_util.Poly_hash

(* slow reference mulmod via Zarith-free 128-bit-ish splitting, using
   floats would lose precision; instead check against small moduli where
   direct computation is exact *)
let test_poly_field_arithmetic_small_cases () =
  (* evaluate known polynomials by hand through the public interface:
     degree 0 => constant function *)
  let h = Poly_hash.make ~seed:1 ~degree:0 ~range:1000 in
  let c = Poly_hash.hash h 0 in
  for x = 1 to 50 do
    checki "constant polynomial" c (Poly_hash.hash h x)
  done

let test_poly_deterministic_and_seeded () =
  let a = Poly_hash.make ~seed:5 ~degree:3 ~range:64 in
  let b = Poly_hash.make ~seed:5 ~degree:3 ~range:64 in
  let c = Poly_hash.make ~seed:6 ~degree:3 ~range:64 in
  let diff = ref 0 in
  for x = 0 to 200 do
    checki "same seed same hash" (Poly_hash.hash a x) (Poly_hash.hash b x);
    if Poly_hash.hash a x <> Poly_hash.hash c x then incr diff
  done;
  checkb "different seeds differ" true (!diff > 100)

let test_poly_range () =
  let h = Poly_hash.make ~seed:7 ~degree:5 ~range:17 in
  for x = 0 to 2000 do
    let v = Poly_hash.hash h x in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_poly_uniformity () =
  let h = Poly_hash.make ~seed:11 ~degree:7 ~range:8 in
  let counts = Array.make 8 0 in
  let trials = 32_000 in
  for x = 0 to trials - 1 do
    counts.(Poly_hash.hash h x) <- counts.(Poly_hash.hash h x) + 1
  done;
  Array.iter
    (fun c ->
      let rate = float_of_int c /. float_of_int trials in
      checkb "roughly uniform" true (Float.abs (rate -. 0.125) < 0.02))
    counts

let test_poly_pairwise_independence () =
  (* degree >= 1 gives pairwise independence: over many draws of the
     function, Pr[h(x1)=a and h(x2)=b] should be close to 1/range^2 *)
  let range = 4 in
  let hits = ref 0 in
  let trials = 12_000 in
  for seed = 0 to trials - 1 do
    let h = Poly_hash.make ~seed ~degree:1 ~range in
    if Poly_hash.hash h 12345 = 1 && Poly_hash.hash h 98765 = 2 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  let expect = 1.0 /. float_of_int (range * range) in
  checkb
    (Printf.sprintf "pairwise rate %.4f ~ %.4f" rate expect)
    true
    (Float.abs (rate -. expect) < 0.015)

let test_poly_metadata () =
  let h = Poly_hash.make ~seed:1 ~degree:9 ~range:100 in
  checki "degree" 9 (Poly_hash.degree h);
  checki "range" 100 (Poly_hash.range h);
  checki "independence" 10 (Poly_hash.independence h);
  checki "storage" 610 (Poly_hash.storage_bits h);
  checkb "invalid degree" true
    (try ignore (Poly_hash.make ~seed:1 ~degree:(-1) ~range:4); false
     with Invalid_argument _ -> true);
  checkb "invalid range" true
    (try ignore (Poly_hash.make ~seed:1 ~degree:2 ~range:0); false
     with Invalid_argument _ -> true)

let test_poly_prefix_load_like_lemma4 () =
  (* the Lemma 4 requirement, with the reference family: hash n names to
     sigma^k digit strings via k independent draws; prefix populations at
     each level stay within sigma * log2 n of expectation *)
  let n = 2000 and sigma = 8 and k = 3 in
  let hs = Array.init k (fun i -> Poly_hash.make ~seed:(50 + i) ~degree:15 ~range:sigma) in
  (* level-1 prefix loads *)
  let counts = Array.make sigma 0 in
  for x = 0 to n - 1 do
    counts.(Poly_hash.hash hs.(0) x) <- counts.(Poly_hash.hash hs.(0) x) + 1
  done;
  let expect = n / sigma in
  Array.iter
    (fun c -> checkb "prefix load balanced" true (c < 2 * expect))
    counts

(* ------------------------------------------------------------------ *)
(* Ascii_table *)

let test_table_render () =
  let t = Ascii_table.create ~title:"T" [ ("col", Ascii_table.Left); ("x", Ascii_table.Right) ] in
  Ascii_table.add_row t [ "a"; "1" ];
  Ascii_table.add_row t [ "bb" ];
  let s = Ascii_table.render t in
  checkb "has title" true (String.length s > 0 && s.[0] = 'T');
  checkb "contains a" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 2 && String.sub l 0 3 = "| a"));
  checkb "ends with newline" true (s.[String.length s - 1] = '\n')

let test_table_too_many_cells () =
  let t = Ascii_table.create [ ("only", Ascii_table.Left) ] in
  Alcotest.check_raises "too many" (Invalid_argument "Ascii_table.add_row: too many cells")
    (fun () -> Ascii_table.add_row t [ "a"; "b" ])

let test_fmt_bits () =
  check Alcotest.string "bits" "12 bit" (Ascii_table.fmt_bits 12);
  check Alcotest.string "kbit" "2.00 Kbit" (Ascii_table.fmt_bits 2048);
  check Alcotest.string "mbit" "1.00 Mbit" (Ascii_table.fmt_bits 1048576)

(* ------------------------------------------------------------------ *)
(* Crc *)

module Crc = Cr_util.Crc

let test_crc_known_vectors () =
  (* the standard CRC-32 (IEEE/zlib) check values *)
  checki "empty" 0 (Crc.string "");
  checki "123456789" 0xCBF43926 (Crc.string "123456789");
  checki "quick brown fox" 0x414FA339
    (Crc.string "The quick brown fox jumps over the lazy dog")

let test_crc_streaming_matches_whole () =
  let a = "r 42 setw 0 1 " and b = "3.5\nand more bytes" in
  checki "update composes" (Crc.string (a ^ b)) (Crc.update (Crc.string a) b)

let test_crc_hex_roundtrip () =
  List.iter
    (fun s ->
      let c = Crc.string s in
      let hex = Crc.to_hex c in
      checki "8 hex digits" 8 (String.length hex);
      match Crc.of_hex hex with
      | Some c' -> checki (Printf.sprintf "roundtrip %S" s) c c'
      | None -> Alcotest.failf "of_hex rejected %S" hex)
    [ ""; "x"; "123456789"; "r 3 linkdown 0 1" ];
  checkb "rejects short" true (Crc.of_hex "abc" = None);
  checkb "rejects long" true (Crc.of_hex "0123456789" = None);
  checkb "rejects non-hex" true (Crc.of_hex "xyzw1234" = None)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"rng int always in bounds" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let r = Rng.create seed in
        let v = Rng.int r bound in
        v >= 0 && v < bound);
    Test.make ~name:"percentile monotone in q" ~count:200
      (list_of_size (Gen.int_range 1 50) (float_range 0.0 100.0))
      (fun xs ->
        let a = Array.of_list xs in
        Array.sort compare a;
        Stats.percentile a 0.3 <= Stats.percentile a 0.7);
    Test.make ~name:"summary min<=p50<=max" ~count:200
      (list_of_size (Gen.int_range 1 60) (float_range (-50.0) 50.0))
      (fun xs ->
        let s = Stats.summarize (Array.of_list xs) in
        s.Stats.min <= s.Stats.p50 && s.Stats.p50 <= s.Stats.max);
    Test.make ~name:"histogram counts all samples" ~count:200
      (list_of_size (Gen.int_range 0 80) (float_range 0.0 10.0))
      (fun xs ->
        let counts = Stats.histogram ~buckets:[| 2.0; 5.0; 8.0 |] (Array.of_list xs) in
        Array.fold_left ( + ) 0 counts = List.length xs);
    Test.make ~name:"bits_for is monotone" ~count:200
      (pair (int_range 1 100000) (int_range 1 100000))
      (fun (a, b) -> if a <= b then Bits.bits_for a <= Bits.bits_for b else true);
    Test.make ~name:"2^(ceil_log2 m) >= m" ~count:200 (int_range 1 1000000)
      (fun m ->
        let b = Bits.ceil_log2 m in
        (1 lsl b) >= m && (b = 0 || (1 lsl (b - 1)) < m));
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_rng_sample_without_replacement;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "summarize empty" `Quick test_stats_summarize_empty;
          Alcotest.test_case "summarize = sorted reference" `Quick
            test_stats_summarize_matches_sort;
          Alcotest.test_case "summarize allocation" `Quick test_stats_summarize_allocation;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "ratio" `Quick test_stats_ratio;
        ] );
      ( "ttcache",
        [
          Alcotest.test_case "basics" `Quick test_ttcache_basics;
          Alcotest.test_case "generation invalidates" `Quick test_ttcache_generation_invalidates;
          Alcotest.test_case "salt spreads" `Quick test_ttcache_salt_spreads;
          Alcotest.test_case "probe allocation" `Quick test_ttcache_probe_allocation;
          Alcotest.test_case "concurrent stress" `Slow test_ttcache_concurrent_stress;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "finite floats" `Quick test_jsonl_float_finite;
          Alcotest.test_case "non-finite floats are null" `Quick test_jsonl_float_non_finite;
          Alcotest.test_case "non-finite rows stay valid" `Quick
            test_jsonl_non_finite_rows_validate;
          Alcotest.test_case "validate" `Quick test_jsonl_validate;
          Alcotest.test_case "writer flushes per line" `Quick test_jsonl_writer_flushes_per_line;
          Alcotest.test_case "flush_all_writers" `Quick test_jsonl_flush_all_writers;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "shutdown idempotent, shared re-inits" `Quick
            test_pool_shutdown_idempotent;
        ] );
      ( "bits",
        [
          Alcotest.test_case "bits_for" `Quick test_bits_for;
          Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
          Alcotest.test_case "ceil_pow" `Quick test_ceil_pow;
        ] );
      ( "digit_hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "digit range" `Quick test_hash_digit_range;
          Alcotest.test_case "digit consistency" `Quick test_hash_digit_consistency;
          Alcotest.test_case "prefix matches" `Quick test_hash_prefix_matches;
          Alcotest.test_case "uniformity" `Quick test_hash_uniformity;
          Alcotest.test_case "seed sensitivity" `Quick test_hash_seed_sensitivity;
          Alcotest.test_case "storage bits" `Quick test_hash_storage_bits;
        ] );
      ( "poly_hash",
        [
          Alcotest.test_case "constant polynomial" `Quick test_poly_field_arithmetic_small_cases;
          Alcotest.test_case "deterministic + seeded" `Quick test_poly_deterministic_and_seeded;
          Alcotest.test_case "range" `Quick test_poly_range;
          Alcotest.test_case "uniformity" `Quick test_poly_uniformity;
          Alcotest.test_case "pairwise independence" `Slow test_poly_pairwise_independence;
          Alcotest.test_case "metadata" `Quick test_poly_metadata;
          Alcotest.test_case "lemma4-style prefix load" `Quick test_poly_prefix_load_like_lemma4;
        ] );
      ( "ascii_table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "fmt bits" `Quick test_fmt_bits;
        ] );
      ( "crc",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
          Alcotest.test_case "streaming update composes" `Quick test_crc_streaming_matches_whole;
          Alcotest.test_case "hex roundtrip" `Quick test_crc_hex_roundtrip;
        ] );
      ("properties", qsuite);
    ]
