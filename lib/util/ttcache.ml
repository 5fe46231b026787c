(* One process-wide fixed-capacity atomic hash table in the style of a
   chess transposition table: a power-of-two array of packed tag words
   beside an array of boxed slots, probed and replaced lock-free with
   plain Atomic loads/stores, aged by generation instead of an eviction
   list.

   Layout.  Entry [i] is two cells:
     tags.(i)  : int Atomic.t   -- 0 when empty, else
                                   (fingerprint << tag_shift)
                                   | (generation mod gen_mod) << 1 | 1
     slots.(i) : (key, gen, value) option Atomic.t
   The tag is advisory: a cheap single-word filter for probing and the
   staleness signal for replacement.  The slot is authoritative: a hit
   requires the boxed tuple to match the probed (key, generation)
   exactly, so a racing writer can at worst turn a hit into a miss,
   never into a wrong or torn answer (OCaml's memory model makes each
   Atomic store of the boxed tuple indivisible).

   Correctness contract: for a fixed generation, every value inserted
   under a key must be equal to every other value inserted under that
   key (the caches here memoize pure functions per generation).  Under
   that contract [find] is indistinguishable from recomputing, which is
   what keeps batch results bit-identical with the cache on or off.

   Aging: bumping the generation (the daemon uses its epoch id) makes
   every existing entry unmatchable without touching the arrays; stale
   entries are reclaimed lazily when a writer picks the oldest slot in
   its probe window. *)

type 'v t = {
  mask : int; (* capacity - 1; capacity is a power of two *)
  tags : int Atomic.t array;
  slots : (int * int * 'v) option Atomic.t array;
  salt : int;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_replaced : int Atomic.t; (* live entry overwritten by a different key, same gen *)
  n_aged : int Atomic.t; (* stale-generation entry reclaimed *)
}

type stats = { hits : int; misses : int; replaced : int; aged : int; capacity : int }

(* Probe window: like a transposition-table cluster, bounded so a full
   table degrades to recomputation instead of a long scan. *)
let probe_len = 8

(* Generations are stored in the tag modulo [gen_mod]; the authoritative
   generation lives unpacked in the slot, so wrap-around only perturbs
   the replacement heuristic, never correctness. *)
let gen_bits = 16
let gen_mod = 1 lsl gen_bits
let tag_shift = gen_bits + 1

(* splitmix64-style finalizer on the native int, for both the bucket
   index and the tag fingerprint *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x4be98134a5976fd3 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x3bbf2a01358fb6d5 in
  (x lxor (x lsr 32)) land max_int

let rec pow2_above c p = if p >= c then p else pow2_above c (p * 2)

let create ?(salt = 0) ~capacity () =
  if capacity <= 0 then invalid_arg "Ttcache.create: capacity must be > 0";
  let cap = pow2_above (max capacity probe_len) 1 in
  {
    mask = cap - 1;
    tags = Array.init cap (fun _ -> Atomic.make 0);
    slots = Array.init cap (fun _ -> Atomic.make None);
    salt = mix salt;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_replaced = Atomic.make 0;
    n_aged = Atomic.make 0;
  }

let capacity t = t.mask + 1

let fingerprint t key = mix (key lxor t.salt)

let pack fp gen = (fp lsl tag_shift) lor ((gen land (gen_mod - 1)) lsl 1) lor 1

(* keep the fingerprint small enough that [pack] never drops its bits *)
let fp_of h = h lsr (tag_shift + 1)

(* The probe of [find], at window offset [i]: a top-level recursion, so
   a probe allocates no closure. *)
let rec probe t ~gen ~key tag base i =
  if i >= probe_len then begin
    Atomic.incr t.n_misses;
    None
  end
  else
    let idx = (base + i) land t.mask in
    if Atomic.get t.tags.(idx) = tag then
      (* tag published after the slot, so the slot is already visible;
         the exact (key, gen) check below rejects fingerprint
         collisions and lost races alike *)
      match Atomic.get t.slots.(idx) with
      | Some (k, g, v) when k = key && g = gen ->
          Atomic.incr t.n_hits;
          Some v
      | _ -> probe t ~gen ~key tag base (i + 1)
    else probe t ~gen ~key tag base (i + 1)

let find t ~gen ~key =
  let h = fingerprint t key in
  probe t ~gen ~key (pack (fp_of h) gen) (h land t.mask) 0

let add t ~gen ~key v =
  let h = fingerprint t key in
  let base = h land t.mask in
  let fp = fp_of h in
  (* replacement preference over the probe window: same fingerprint
     (refresh the key in place) > empty > stalest generation *)
  let victim = ref (base land t.mask) in
  let best = ref (-1) in
  (try
     for i = 0 to probe_len - 1 do
       let idx = (base + i) land t.mask in
       let tag = Atomic.get t.tags.(idx) in
       if tag = 0 then begin
         if !best < gen_mod then begin
           victim := idx;
           best := gen_mod (* empty beats any staleness *)
         end
       end
       else if tag lsr tag_shift = fp then begin
         victim := idx;
         raise Exit (* same key: always the slot to refresh *)
       end
       else begin
         let slot_gen = (tag lsr 1) land (gen_mod - 1) in
         let age = (gen - slot_gen) land (gen_mod - 1) in
         if age > !best then begin
           victim := idx;
           best := age
         end
       end
     done
   with Exit -> best := gen_mod + 1);
  let idx = !victim in
  (match Atomic.get t.slots.(idx) with
  | Some (_, g, _) when g <> gen -> Atomic.incr t.n_aged
  | Some (k, _, _) when k <> key -> Atomic.incr t.n_replaced
  | _ -> ());
  (* write protocol: slot first, tag last — a reader that sees the tag
     sees a slot at least as new *)
  Atomic.set t.slots.(idx) (Some (key, gen, v));
  Atomic.set t.tags.(idx) (pack fp gen)

let memo t ~gen ~key f =
  match find t ~gen ~key with
  | Some v -> v
  | None ->
      let v = f () in
      add t ~gen ~key v;
      v

let stats t =
  {
    hits = Atomic.get t.n_hits;
    misses = Atomic.get t.n_misses;
    replaced = Atomic.get t.n_replaced;
    aged = Atomic.get t.n_aged;
    capacity = t.mask + 1;
  }

let no_stats = { hits = 0; misses = 0; replaced = 0; aged = 0; capacity = 0 }
