(** Baseline: Awerbuch–Peleg-style hierarchical tree covers ([9, 10]
    with the stretch improvements of [3]).

    For {e every} scale [i ∈ {0, …, ⌈log₂ Δ⌉}] a sparse cover
    [TC_{k,2^i}(G)] is built on the {e whole} graph, and every node
    stores Lemma 7 routing state for every cluster tree it belongs to at
    every scale.  Routing searches the home cluster of scale 0, 1, 2, …
    until the destination is found; since the scale-[i] home cluster
    fully contains [B(u, 2^i)], the search terminates by scale
    [⌈log₂ d(u,v)⌉] with total cost [O(k · d(u,v))].

    This is the [O(k)]-stretch state of the art the paper improves on:
    good stretch, but per-node storage grows with [log Δ] — the
    dependence experiment T3 exhibits and the paper's scheme removes. *)

val build : ?k:int -> Cr_graph.Apsp.t -> Scheme.t
(** [k] defaults to 3. *)

val levels : Cr_graph.Apsp.t -> int
(** Number of scales {!build} makes over this APSP:
    [⌈log₂ max(1, diameter)⌉ + 1] (for the T3 report). *)
