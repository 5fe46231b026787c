(* Bounded retry with deterministic seeded jittered backoff.

   Backoff draws come from a splitmix64 stream keyed by
   (policy seed, retry key, attempt) — the Workload.block_rng idiom —
   so the sleep schedule for a given query is a pure function of the
   policy, never of which lane runs it or how many retries other
   queries consumed.  Sleeping goes through the swappable
   [Clock.sleep], so tests never block. *)

module Rng = Cr_util.Rng
module Clock = Cr_obs.Clock

type policy = {
  max_attempts : int; (* total tries including the first; 1 = no retry *)
  base_s : float; (* backoff before attempt 2 *)
  multiplier : float; (* exponential growth per further attempt *)
  jitter : float; (* +/- fraction of the nominal backoff, in [0, 1] *)
  seed : int;
}

let none = { max_attempts = 1; base_s = 0.0; multiplier = 1.0; jitter = 0.0; seed = 0 }

let make ?(base_s = 0.001) ?(multiplier = 2.0) ?(jitter = 0.5) ?(seed = 1) ~max_attempts () =
  if max_attempts < 1 then invalid_arg "Retry.make: max_attempts must be >= 1";
  if not (base_s >= 0.0) then invalid_arg "Retry.make: negative base_s";
  if not (multiplier >= 1.0) then invalid_arg "Retry.make: multiplier must be >= 1";
  if not (jitter >= 0.0 && jitter <= 1.0) then invalid_arg "Retry.make: jitter outside [0, 1]";
  { max_attempts; base_s; multiplier; jitter; seed }

(* backoff taken after [attempt] (1-based) fails; deterministic in
   (seed, key, attempt) *)
let backoff_s p ~key ~attempt =
  if attempt < 1 then invalid_arg "Retry.backoff_s: attempt must be >= 1";
  let nominal = p.base_s *. (p.multiplier ** float_of_int (attempt - 1)) in
  if p.jitter = 0.0 then nominal
  else begin
    let rng = Rng.create ((p.seed * 1_000_003) + (key * 8191) + attempt) in
    let u = Rng.float rng 1.0 in
    nominal *. (1.0 -. p.jitter +. (2.0 *. p.jitter *. u))
  end

let run p ~key f =
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok -> ok
    | Error _ as err ->
        if attempt >= p.max_attempts then err
        else begin
          !Clock.sleep (backoff_s p ~key ~attempt);
          go (attempt + 1)
        end
  in
  go 1
