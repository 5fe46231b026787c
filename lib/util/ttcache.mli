(** Shared lock-free plan cache with generation aging.

    A fixed-capacity transposition-table-style hash map from [int] keys
    to ['v] values, safe to read and write from any number of domains
    concurrently with plain [Atomic] loads and stores — no locks, no
    CAS loops, no allocation on the probe path beyond the stored
    values.

    {2 Semantics}

    The table memoizes {e pure-per-generation} functions: for a fixed
    [gen], all values ever passed to {!add} under one [key] must be
    equal.  Under that contract {!find} returns either [None] or the
    value the caller would have computed, so results stay bit-identical
    with the cache on or off — a racing writer can turn a hit into a
    miss (both lanes compute), never into a wrong or torn answer.  A
    hit requires the stored [(key, generation)] to match the probe
    exactly; the packed tag word is only a fast filter and a staleness
    signal.

    Aging instead of eviction: entries tagged with another generation
    never match, so an epoch swap invalidates the whole table by
    bumping the caller's generation (the daemon threads its epoch id),
    in O(1) and without blocking concurrent readers of the old epoch.
    Stale slots are reclaimed lazily by writers, preferred over live
    ones when a probe window is full.

    Capacity is rounded up to a power of two; probing is linear over a
    bounded window, so a full table degrades to recomputation, never to
    long scans. *)

type 'v t

type stats = {
  hits : int;
  misses : int;
  replaced : int;  (** live same-generation entries overwritten by a new key *)
  aged : int;  (** stale-generation entries reclaimed by a writer *)
  capacity : int;
}

val create : ?salt:int -> capacity:int -> unit -> 'v t
(** [create ~capacity ()] allocates the table; [capacity] (entries,
    [> 0]) is rounded up to a power of two.  [salt] perturbs the hash
    for distribution — e.g. a structural graph hash so equal keys of
    different graphs spread differently — and never affects matching.
    @raise Invalid_argument when [capacity <= 0]. *)

val capacity : 'v t -> int
(** Actual capacity after rounding. *)

val find : 'v t -> gen:int -> key:int -> 'v option
(** Lock-free lookup of [key] at generation [gen]; counts one hit or
    one miss. *)

val add : 'v t -> gen:int -> key:int -> 'v -> unit
(** Lock-free insert, replacing within a bounded probe window by
    preference: same key, else an empty slot, else the stalest
    generation.  An insert can be lost to a concurrent writer of the
    same window — the cost is a future miss, by design. *)

val memo : 'v t -> gen:int -> key:int -> (unit -> 'v) -> 'v
(** [memo t ~gen ~key f] is the cached value of [key] at [gen], else
    [f ()], which it then {!add}s — the one find-then-add sequence
    every caller shares.  [f] must obey the contract above. *)

val stats : 'v t -> stats
(** Monotone counter snapshot (atomic counters, so exact even under
    concurrent use). *)

val no_stats : stats
(** All-zero stats, for the cache-off arms of reports. *)
