(** A reusable pool of OCaml 5 worker domains.

    Spawning a domain costs milliseconds and a slot in the runtime's
    fixed domain table, so parallel regions that re-spawn per call
    amortize badly.  A pool spawns its workers once; every
    {!parallel_for} then publishes one chunked job to the sleeping
    workers and the calling domain participates as one more lane.

    This is the substrate of the batch query engine ([Cr_engine]) and
    of [Cr_graph.Apsp.compute_parallel]; both promise results that are
    bit-identical to their sequential paths, which the pool supports by
    construction: each index of [0, n) is executed exactly once, and
    bodies write to disjoint per-index slots.  The exactly-once
    guarantee survives injected lane crashes: a crashed lane's claimed
    chunk is requeued to the surviving lanes (see {!chaos}). *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains (the caller
    is the remaining lane).  [domains] is clamped to [\[1, 64\]].  A
    pool of size 1 runs everything sequentially in the caller. *)

val domains : t -> int
(** Number of lanes, including the calling domain. *)

type chaos = {
  seed : int;
  crash_rate : float;  (** per-job P(a worker lane dies on its first claim) *)
  stall_rate : float;  (** per-chunk P(a lane sleeps before claiming) *)
  stall_s : float;  (** sleep length for one injected stall *)
}
(** A deterministic lane-fault plan.  Decisions are drawn from a
    splitmix64 stream seeded by [(seed, job generation, lane)], so a
    fixed seed produces a reproducible fault pattern per job.  Only
    worker lanes crash — the caller (lane 0) always survives — and a
    crashed lane stays lost for the rest of that job only: the
    underlying domain returns to the pool, so the next job runs at full
    width again. *)

val chaos_plan :
  ?crash_rate:float -> ?stall_rate:float -> ?stall_s:float -> seed:int -> unit -> chaos
(** Rates default to [0.0] and must lie in [\[0, 1\]]; [stall_s]
    defaults to 1ms and must be non-negative.
    @raise Invalid_argument outside those ranges. *)

type run_stats = {
  requeued : int;  (** indexes re-executed by survivors after crashes *)
  lost_lanes : int;  (** worker lanes that crashed during the job *)
  stalls : int;  (** injected sleeps taken *)
}

val no_stats : run_stats

val parallel_for : ?chunk:int -> t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n f] runs [f i] for every [i] in [0, n),
    partitioned dynamically in chunks of [chunk] (default 16) over the
    pool's lanes, and returns when all lanes have drained.  The first
    exception raised by any lane is re-raised in the caller with the
    raising lane's backtrace, but only after every lane has drained and
    the pool state is reset, so the pool stays reusable after a
    poisoned job (remaining indexes may be skipped).  A nested or
    concurrent call while the pool is busy degrades to a sequential
    loop instead of deadlocking. *)

val parallel_for_stats :
  ?chunk:int -> ?chaos:chaos -> t -> n:int -> (int -> unit) -> run_stats
(** {!parallel_for} plus fault injection and per-job fault stats.  With
    [chaos], worker lanes may stall or crash; a crashed lane's claimed
    chunk is pushed to a requeue list that surviving lanes drain after
    the main work counter is exhausted, preserving the exactly-once
    guarantee (and therefore the determinism contract of result
    arrays).  Chaos is inert on a pool of width 1 and on the
    sequential fallback paths. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent.  Subsequent
    {!parallel_for}s run sequentially. *)

val default_domains : unit -> int
(** [min 8 (Domain.recommended_domain_count ())] — the width used for
    the shared pool and for callers that do not pick one. *)

val shared : unit -> t
(** The process-wide pool, created on first use with
    {!default_domains} lanes.  The batch engine's default,
    [Experiment.run_scheme] and the resilience sweeps all run on this
    pool, so a process pays the spawn cost once no matter how many
    sweeps it runs.  Its workers stay parked between jobs, and a parked
    worker stops for every minor collection of the domains still
    running, so [Apsp.compute_parallel] and [Apsp.repair], which are
    followed by long single-domain builds, join a pool of their own
    instead.  The route daemon's repair asks that pool for one lane
    fewer than {!default_domains}, leaving a core to its serving loop:
    on two cores it spawns none. *)

val shutdown_shared : unit -> unit
(** Joins the shared pool's workers and clears the singleton.
    Idempotent (a second call is a no-op), and re-init is automatic:
    the next {!shared} spawns a fresh pool.  Long-running entry points
    (the route daemon) call this from [at_exit] so the process never
    terminates with worker domains parked on a condition variable; do
    not call while a [parallel_for] on the shared pool is in
    flight. *)
