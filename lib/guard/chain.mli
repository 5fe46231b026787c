(** The per-query guard chain: the one implementation of the guard
    order (DESIGN.md §8).

    Both serving surfaces run every query through it: the batch engine
    keeps one chain per shard, the daemon one for its query thread.
    {!admit} checks, in order, (1) the batch deadline, (2) load
    shedding and (3) the circuit breaker.  An admitted query then goes
    through {!run}: (4) the injected chaos stall, (5) execution under
    seeded bounded retry, with injected transient faults eating leading
    attempts, (6) the query and batch deadlines — an answer that
    overran its budget is still [Timed_out] — and (7) the breaker
    record.

    A chain has one executor at a time (an engine shard has a single
    executor per batch, the daemon a single query thread), so its
    breaker, cost estimate and tallies take no locks. *)

type t

val create : Policy.t -> t
(** A fresh chain: breaker closed (when the policy has one), no cost
    estimate, zero tallies. *)

val admit : t -> batch:Deadline.t -> queued:int -> Rejection.t option
(** [Some Timed_out] once [batch] has expired; [Some Shed] when
    [queued] exceeds the shed bound or the remaining batch budget
    cannot fit the policy's headroom times the cost estimate;
    [Some Breaker_open] when the breaker refuses.  [None] admits. *)

val run :
  t -> Chaos.t -> batch:Deadline.t -> q:int -> (unit -> 'a) -> ('a, Rejection.t) result
(** Executes an admitted query [f] as query [q]: the chaos stall and
    transient faults are pure in [(chaos, q)] and retry backoff is
    keyed by [q], so a seeded run replays.  The cost estimate that
    shedding reads is kept only when [batch] is bounded — nothing else
    reads it — and is timed on {!Cr_obs.Clock}.  Exceptions from [f]
    propagate. *)

val breaker_state : t -> Breaker.state option
(** [None] when the policy has no breaker. *)

val retries : t -> int
(** Lifetime extra attempts spent by retry. *)

val stalls : t -> int
(** Lifetime injected query stalls taken. *)
