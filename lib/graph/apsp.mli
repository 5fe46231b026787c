(** All-pairs shortest paths, via one Dijkstra per node.

    Preprocessing for scheme construction and ground truth for stretch
    measurement.  Memory is O(n²) floats, fine for the simulation sizes
    used in the evaluation (n ≤ a few thousand). *)

type t

val compute : Graph.t -> t
(** Runs [n] Dijkstras sequentially.  Each runs in the domain's reused
    work arrays ({!Dijkstra.run}), so a source costs only the fresh
    [dist], [parent] and [order] it keeps. *)

val compute_parallel : ?domains:int -> Graph.t -> t
(** Same result, with the sources partitioned across a pool of
    [domains] lanes (default {!Cr_util.Domain_pool.default_domains})
    that is spawned for the call and joined before it returns, so no
    idle worker is left to slow the single-domain work that follows.
    [domains <= 1] or a graph with fewer than [2 * domains] nodes runs
    {!compute} in the caller.  Each Dijkstra only reads the
    (immutable) graph and writes its own result slot, so the result is
    identical — not merely statistically equal — to {!compute}'s, at
    any width. *)

val graph : t -> Graph.t

val distance : t -> int -> int -> float
(** d(u, v); [infinity] if disconnected. *)

val dirty_sources : t -> Graph.mutation -> bool array
(** Which sources' single-source results a mutation can change —
    evaluated against [t] (the ground truth {e before} the mutation).
    A sound over-approximation that is tie-exact: a source left
    unmarked provably keeps its distances {e and} its deterministic
    parent array, so {!repair} may share its result wholesale.  For an
    edge mutation this is the set of sources for which the edge is
    tight (deletions/increases) or would relax or tie
    (insertions/decreases); for [Node_down] it is every source that
    reaches the node.
    @raise Invalid_argument if the mutation does not apply to [t]'s
    graph. *)

val repair : t -> Graph.mutation -> dirty:bool array -> t
(** [repair t mu ~dirty] is the incremental ground-truth update: a
    fresh APSP over [Graph.apply (graph t) mu] that re-runs Dijkstra
    only for [dirty] sources — in parallel, on a pool of its own as in
    {!compute_parallel}, when there are enough — and shares every clean
    source's result from [t] as it is (physically: results hold parent
    nodes, not ports, so shifted port numbers leave them exact).  The
    result is bit-identical to [compute (Graph.apply (graph t) mu)]
    when [dirty] over-approximates honestly (pinned by the
    repair-equivalence property test).
    @raise Invalid_argument as {!Graph.apply}, on a length mismatch,
    or if a clean source's parent array uses an edge [mu] removes (the
    [Link_down] edge or a [Node_down]'s edges): [dirty]
    under-approximated.  The check costs O(n) per removed edge. *)

val repair_mutation : ?domains:int -> t -> Graph.mutation -> t * int
(** Applies one mutation end to end:
    [Graph.apply] + {!dirty_sources} + {!repair}, returning the
    repaired ground truth and the number of recomputed sources.
    Chained per mutation by the daemon's repair worker (affectedness
    tests are only valid against the immediately preceding ground
    truth, so batches must be folded one mutation at a time).
    The dirty sources are recomputed on [domains] lanes (default
    {!Cr_util.Domain_pool.default_domains}) as in {!compute_parallel}:
    [domains <= 1], or fewer than [2 * domains] dirty sources, runs
    them in the caller and spawns no domain.  The result is
    bit-identical at any width.  The daemon passes one lane fewer than
    the default, so that its repair leaves a core to the queries it
    serves meanwhile.
    @raise Invalid_argument as {!Graph.apply}. *)

val sssp : t -> int -> Dijkstra.result
(** The stored single-source result for a node. *)

val ball : t -> int -> Ball.t
(** Ball index of a node: an O(1) view of its stored result. *)

val aspect_ratio : t -> float
(** Δ = max d(u,v) / min d(u,v) over connected pairs with u ≠ v;
    [nan] if there are no such pairs. *)

val diameter : t -> float
(** Largest finite pairwise distance. *)

val connected : t -> bool
(** Whether all pairs are at finite distance. *)
