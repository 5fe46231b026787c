(** Bounded retry with deterministic seeded jittered backoff.

    The backoff before attempt [a+1] of retry key [k] is a pure
    function of [(policy.seed, k, a)] — drawn from its own splitmix64
    stream, the [Workload.block_rng] idiom — so retry schedules are
    reproducible regardless of lane interleaving.  Sleeps go through
    the swappable {!Cr_obs.Clock.sleep}. *)

type policy = {
  max_attempts : int;  (** total tries including the first; [1] = no retry *)
  base_s : float;  (** nominal backoff before attempt 2 *)
  multiplier : float;  (** exponential growth per further attempt *)
  jitter : float;  (** backoff is scaled by [1 - j .. 1 + j] *)
  seed : int;
}

val none : policy
(** One attempt, no backoff: the identity wrapper. *)

val make :
  ?base_s:float -> ?multiplier:float -> ?jitter:float -> ?seed:int -> max_attempts:int ->
  unit -> policy
(** Defaults: 1ms base, multiplier 2, jitter 0.5, seed 1.
    @raise Invalid_argument on [max_attempts < 1], negative [base_s],
    [multiplier < 1] or [jitter] outside [\[0, 1\]]. *)

val backoff_s : policy -> key:int -> attempt:int -> float
(** Backoff slept after 1-based [attempt] fails, for retry stream
    [key] (the engine uses the query index).
    @raise Invalid_argument if [attempt < 1]. *)

val run : policy -> key:int -> (attempt:int -> ('a, 'e) result) -> ('a, 'e) result
(** [run p ~key f] calls [f ~attempt:1], retrying on [Error] with
    backoff until success or [max_attempts] is spent; the last error
    is returned as-is. *)
