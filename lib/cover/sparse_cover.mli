(** Sparse covers — the [TC_{k,ρ}(G)] of Lemma 6 (Awerbuch–Peleg [9]
    with the routing extensions of [3]).

    Given a weighted graph, a subset of {e allowed} nodes (the [G_i] of
    the paper are induced subgraphs, expressed here as a predicate so all
    node ids stay global), and parameters [k ≥ 1] and [ρ > 0], builds a
    collection of rooted cluster trees such that:

    + (Cover) for every allowed node [v], some tree fully contains the
      ball [B(v, ρ)] taken in the allowed subgraph;
    + (Sparse) every node belongs to few trees — the paper's bound is
      [2k·n^{1/k}]; our greedy merge is validated against it empirically
      (see T5) and {!max_overlap} reports the achieved value;
    + (Small radius) every tree has [rad(T) ≤ (2k+1)·ρ] by construction
      (at most [k] absorption rounds of [2ρ] radius growth follow the
      initial [ρ]-ball, since all but the last must multiply the cluster
      size by more than [n^{1/k}]).  The paper's refined constant
      [(2k−1)ρ] comes from the extensions of [3]; measured radii —
      reported by T5 — are usually well below both;
    + (Small edges) every tree edge has weight [≤ 2ρ].

    Construction: Awerbuch–Peleg ball coarsening in phases.  A cluster
    starts from an uncovered node's [ρ]-ball and absorbs every
    still-eligible [ρ]-ball intersecting it, continuing while each round
    multiplies its size by more than [n^{1/k}] (at most [k] rounds).
    Absorbed balls are covered by the final cluster; balls that merely
    touch it sit out the rest of the phase, so clusters created within a
    phase are pairwise disjoint and the overlap of the whole cover is at
    most the number of phases.  Ball membership in the allowed subgraph
    is symmetric, so a node's own ball lists the balls that contain it:
    no further index is built, and the work stays proportional to the
    total size of the balls, which run on one reused Dijkstra scratch. *)

type cluster = {
  center : int;
  members : int array;  (** sorted node ids *)
  tree : Cr_tree.Tree.t;  (** spanning tree rooted at [center], edges ≤ 2ρ *)
}

type t

val build :
  ?apsp:Cr_graph.Apsp.t -> ?allowed:(int -> bool) -> k:int -> rho:float -> Cr_graph.Graph.t -> t
(** Builds the cover.  [allowed] defaults to every node.  The build
    holds each allowed node's [ρ]-ball, a prefix of the order of a search
    from it, and the cover keeps only its clusters and each node's home.
    When every node is allowed, the [ρ]-balls are those of the whole
    graph, and with [apsp] (the ground truth of this graph) they are
    read from it instead of being searched again; the cover is the same
    either way. *)

val clusters : t -> cluster array

val home : t -> int -> int
(** [home t v] is the index (into {!clusters}) of the cluster that covers
    [B(v, ρ)] — the [W(u,i)] of §3.4.
    @raise Invalid_argument if [v] was not allowed. *)

val max_overlap : t -> int
(** Largest number of clusters any single node belongs to. *)

val max_radius : t -> float
(** Largest tree radius across clusters. *)

val max_tree_edge : t -> float
(** Heaviest tree edge across clusters. *)

val check_cover : t -> bool
(** Re-verifies property 1 by recomputing every allowed ball (test
    helper; O(n · ball)). *)
