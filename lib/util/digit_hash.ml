type t = { seed : int64; sigma : int; digits : int }

let create ~seed ~sigma ~digits =
  assert (sigma >= 1);
  assert (digits >= 1);
  (* Pre-mix the seed so that nearby seeds give unrelated hash functions. *)
  let mixed =
    let z = Int64.of_int seed in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
    Int64.logxor z (Int64.shift_right_logical z 29)
  in
  { seed = mixed; sigma; digits }

let sigma t = t.sigma

let digits t = t.digits

(* One 64-bit avalanche per (id, digit index): statistically far stronger
   than the Θ(log n)-wise independence the analysis needs. *)
let[@inline] raw t id i =
  let z = Int64.add t.seed (Int64.of_int ((id * 0x1000193) + i)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let digit t id i =
  let r = Int64.to_int (Int64.shift_right_logical (raw t id i) 3) in
  r mod t.sigma

let hash t id = Array.init t.digits (fun i -> digit t id i)

let prefix_matches t id prefix j =
  let rec go i = i >= j || (digit t id i = prefix.(i) && go (i + 1)) in
  go 0

let storage_bits ~n =
  let lg = Bits.bits_for n in
  lg * lg
