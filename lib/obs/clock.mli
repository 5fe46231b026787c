(** The process time source.

    One swappable monotonic clock for every timer in the repository:
    guard deadlines and breaker cooldowns ([Cr_guard]), engine batch
    wall time and per-query latency, {!Profile} stages, and the socket
    server's idle and drain deadlines.  Defaults to {!monotonic};
    tests swap in a fake with {!with_fake} — the only swap seam. *)

val monotonic : unit -> float
(** Seconds on CLOCK_MONOTONIC (arbitrary origin).  Never goes
    backwards and is immune to wall-clock steps and NTP slew, so a
    deadline armed in a long-running daemon expires exactly its budget
    later — the production default of {!now}. *)

val now : (unit -> float) ref
(** Seconds; only ever compared by subtraction, so the origin is
    irrelevant.  Defaults to {!monotonic} (a daemon must survive
    wall-clock jumps); swap with {!with_fake}. *)

val sleep : (float -> unit) ref
(** Used by retry backoff.  Defaults to [Unix.sleepf]; swap to avoid
    real waits in tests. *)

val with_fake : ((float -> unit) -> 'a) -> 'a
(** [with_fake f] installs a fake clock starting at 0.0 and a fake
    sleep that advances it, calls [f advance] where [advance dt] moves
    fake time forward, and restores the real clock on exit (exceptions
    included). *)
