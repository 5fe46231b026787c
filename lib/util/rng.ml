(* The splitmix64 state lives unboxed in 8 bytes: an [int64] record
   field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let bits64 t = next t

let split t = of_state (mix64 (next t))

(* Rejection sampling over the top 62 bits to avoid modulo bias. *)
let rec below t bound =
  let r = Int64.to_int (next t) land max_int in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then below t bound else v

let int t bound =
  assert (bound > 0);
  below t bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t m n =
  assert (m <= n && m >= 0);
  if 2 * m >= n then begin
    let all = Array.init n (fun i -> i) in
    shuffle t all;
    Array.sub all 0 m
  end else begin
    (* Floyd's algorithm: O(m) expected draws. *)
    let seen = Hashtbl.create (2 * m) in
    let out = Array.make m 0 in
    for idx = 0 to m - 1 do
      let j = n - m + idx in
      let v = int t (j + 1) in
      let pick = if Hashtbl.mem seen v then j else v in
      Hashtbl.replace seen pick ();
      out.(idx) <- pick
    done;
    shuffle t out;
    out
  end
