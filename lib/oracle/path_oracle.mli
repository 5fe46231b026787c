(** Path-reporting approximate distance oracle — Thorup–Zwick with
    per-entry tree witnesses.

    Same {!Compact_routing.Tz_hierarchy} as
    {!Compact_routing.Distance_oracle} (levels [A₀ ⊇ … ⊇ A_{k−1}]
    sampled with probability [n^{−1/k}], stretch at most [2k − 1],
    expected size [O(k · n^{1+1/k})]), but each bunch entry [(u, w)]
    also stores the neighbor of [u] toward [w] on the shortest-path
    tree of [w].  {!path} therefore returns a {e concrete walk}
    [u → … → w → … → v] realizing the estimate, not just a number —
    the path-reporting regime of Elkin–Neiman–Wulff-Nilsen layered on
    the same machinery the routing baselines use.

    The table is {e constructively closed} at build time: for every
    stored entry and every pivot pair, the full witness chain up the
    tree is inserted, so stitching never dead-ends on a floating-point
    tie.  Closure entries are counted honestly in {!size_entries} and
    {!storage_bits}; {!closure_entries} reports how many closure added.

    Determinism: [build] is a pure function of [(apsp, k, seed)] —
    table contents do not depend on insertion order because every
    entry's value is a pure function of [(node, witness)]. *)

type t

type answer = {
  est : float;  (** the oracle estimate, [d(u,w) + d(w,v)] *)
  walk : int list;  (** concrete walk from [u] to [v] realizing [est] *)
  via : int;  (** the meeting witness [w] *)
  levels : int;  (** pivot levels probed by the alternating walk *)
}

val build : ?k:int -> ?seed:int -> Cr_graph.Apsp.t -> t
(** [k] defaults to 3, [seed] to 31 (the {!Compact_routing.Distance_oracle}
    defaults, so the two share a hierarchy).
    @raise Invalid_argument if [k < 1]. *)

val k : t -> int

val query : ?trace:Cr_obs.Trace.sink -> t -> int -> int -> float
(** Estimated distance; [infinity] for disconnected pairs; [0.] when
    [u = v].  Within a factor [2k − 1] of the true distance, symmetric
    (the alternating walk runs from the canonical [(min u v, max u v)]
    ordering).  With [trace], emits one [Bunch_probe] per level
    probed.  The closed table can terminate the walk earlier than
    [Distance_oracle.query], so estimates are [<=] its — never
    worse. *)

val path : ?trace:Cr_obs.Trace.sink -> t -> int -> int -> answer option
(** The path-reporting query: [None] iff the endpoints are
    disconnected; otherwise a walk from [u] to [v] whose edges all
    exist in the graph and whose total weight equals [est] up to
    floating-point association (the two tree halves are Dijkstra
    distance sums; re-pricing the walk edge-by-edge can differ by
    ulps).  [query] and [path] agree: [est = query t u v] whenever both
    are finite.  With [trace], additionally emits a [Stitch] event for
    the two tree halves. *)

val stretch_bound : t -> float
(** [2k − 1]. *)

val size_entries : t -> int
(** Total bunch entries stored, closure included. *)

val closure_entries : t -> int
(** Entries added by constructive closure (already in {!size_entries}). *)

val node_entries : t -> int -> int
(** Bunch entries stored at one node. *)

val storage_bits : t -> int
(** Bits for all tables: per bunch entry a witness id, an exact
    distance and a next-hop id; plus the per-node pivot arrays
    ([k] ids + [k] distances). *)
