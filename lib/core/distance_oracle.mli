(** Approximate distance oracle — Thorup–Zwick [30].

    The paper's labeled comparators ([29], our {!Baseline_tz}) are built
    on the distance-oracle machinery of [30]: a structure of expected
    size [O(k · n^{1+1/k})] answering distance queries in O(k) time with
    stretch at most [2k − 1].  This module provides it as a standalone
    substrate: it shares the one {!Tz_hierarchy} (levels, pivots, bunch
    test) with the routing baseline, which draws its levels from a
    node-indexed stream where this oracle draws them from one
    sequential stream, and is the natural tool for distance estimation
    experiments.

    Construction: levels [A₀ = V ⊇ … ⊇ A_{k−1}] sampled with probability
    [n^{−1/k}] per level; pivots [p_j(u)] = closest [A_j] node; bunches
    [B(u) = ∪_j {w ∈ A_j \ A_{j+1} : d(u,w) < d(u, p_{j+1}(u))}] with
    exact distances stored for bunch members.

    Query(u,v): walk [w ← p_j(u)] for rising [j], swapping [u] and [v],
    until [w ∈ B(v)]; return [d(u,w) + d(w,v)]. *)

type t

val build : ?k:int -> ?seed:int -> Cr_graph.Apsp.t -> t
(** [k] defaults to 3.  @raise Invalid_argument if [k < 1]. *)

val k : t -> int

val query : t -> int -> int -> float
(** Estimated distance; [infinity] for disconnected pairs; [0.] when
    [u = v].  Guaranteed within a factor [2k − 1] of the true distance.
    Symmetric: [query t u v = query t v u] exactly (the alternating walk
    runs from the canonical [(min u v, max u v)] ordering — property
    tested in test/test_core.ml). *)

val stretch_bound : t -> float
(** [2k − 1]. *)

val size_entries : t -> int
(** Total bunch entries stored — expected [O(k · n^{1+1/k})]. *)

val storage_bits : t -> int
(** Bits for all bunches (id + distance per entry). *)
