(** Per-shard circuit breaker (closed / open / half-open).

    Closed counts failures over a sliding window of the last [window]
    outcomes and trips once [min_samples] are present and the failure
    rate reaches [threshold].  Open rejects everything until
    [cooldown_s] has elapsed on {!Cr_obs.Clock.now}, then Half_open admits up
    to [probes] trials: one failed probe re-opens (cooldown restarts),
    [probes] consecutive successes close and reset the window.

    Single-executor by design: one breaker guards one engine shard,
    like the per-lane caches, so there is no internal locking and
    the state machine is deterministic in (outcome sequence, clock). *)

type config = {
  window : int;
  threshold : float;
  min_samples : int;
  cooldown_s : float;
  probes : int;
}

val default_config : config
(** window 32, threshold 0.5, min_samples 8, cooldown 50ms, probes 2. *)

val make_config :
  ?window:int -> ?threshold:float -> ?min_samples:int -> ?cooldown_s:float -> ?probes:int ->
  unit -> config
(** Same defaults as {!default_config}.
    @raise Invalid_argument on non-positive window/min_samples/probes,
    threshold outside (0, 1], or a negative cooldown. *)

type state = Closed | Open | Half_open

type t

val create : config -> t

val allow : t -> bool
(** Admission check; call once per request before executing it.
    [false] means reject with [Rejection.Breaker_open].  Performs the
    Open -> Half_open transition when the cooldown has elapsed (the
    caller of that first [allow] gets the probe slot). *)

val record : t -> ok:bool -> unit
(** Report the outcome of an admitted request. *)

val state : t -> state

val opens : t -> int
(** Lifetime count of trips to Open. *)

val failure_rate : t -> float
(** Current windowed failure rate (0 when no samples). *)
