(** The paper's routing scheme (§3): scale-free name-independent compact
    routing with stretch [O(k)] and [Õ(n^{1/k})]-bit tables.

    Construction
    (§3.1–§3.6):
    - the sparse/dense decomposition of every node ({!Decomposition});
    - the landmark hierarchy [C₀ ⊇ … ⊇ C_k] ({!Cr_landmark.Landmarks});
    - for every node [v] that appears in someone's nearby-landmark set
      [S(u)], a shortest-path tree [T(v)] spanning [{u : v ∈ S(u)}]
      equipped with the Lemma 4 name-independent error-reporting tree
      routing ({!Cr_tree.Ni_tree_routing});
    - for every level [i] with [V_i = {u : i ∈ R(u)} ≠ ∅], a sparse cover
      [TC_{k,2^i}(G_i)] ({!Cr_cover.Sparse_cover}) whose cluster trees
      carry the Lemma 7 routing ({!Cr_tree.Dense_tree_routing}).

    Routing iterates phases [i = 1 .. k−1], applying the sparse strategy
    (§3.3) or the dense strategy (§3.6) according to the level's density,
    and finishes with a global phase on the tree of the top-rank landmark
    — the explicit form of the paper's final iteration [i = k], which
    under the paper's constants always succeeds (Lemma 3/Claim 1) and
    under scaled constants doubles as a delivery guarantee (DESIGN.md §2
    note 3). *)

type t

type mode =
  | Full  (** the paper's scheme *)
  | Sparse_only  (** ablation: every level handled by the sparse strategy *)
  | Dense_only  (** ablation: every level handled by the dense strategy *)

val build : ?params:Params.t -> ?mode:mode -> ?profile:Cr_obs.Profile.t -> Cr_graph.Apsp.t -> t
(** Builds the scheme over a connected component reachable ground truth.
    [params] defaults to [Params.scaled ~k:3].  The graph must be
    normalized (min edge weight 1).  With [profile], each construction
    stage (decomposition, landmark-hierarchy, nearby-sets, sparse-trees,
    dense-covers, local-records) is timed and charged its table bits;
    the construction itself is unchanged.
    @raise Invalid_argument otherwise. *)

val scheme : t -> Scheme.t
(** The evaluation-facing interface (routing + storage accounting). *)

val decomposition : t -> Decomposition.t

val params : t -> Params.t

type stats = {
  routes : int;
  delivered : int;
  fallback_resolved : int;  (** delivered only by the global phase *)
  failed : int;
  phase_found : int array;  (** index i: deliveries at phase i (1..k+1); k+1 is the global phase *)
}

val stats : t -> stats
(** Snapshot of the live counters, updated by every [route] call.  The
    counters are atomic, so the totals stay exact when routes are
    issued from several domains at once (the batch engine does). *)

val center_count : t -> int
(** Number of distinct sparse-phase centers (plus the global root). *)

val cover_levels : t -> int list
(** Levels at which covers were built. *)

val describe_node : t -> int -> string
(** Human-readable dump of one node's routing table: its decomposition
    ranges, the per-phase plan (sparse center + search bound, or dense
    level + cluster root), and its per-category bit budget.  Used by the
    [crt tables] subcommand. *)

val phase_plan : t -> int -> int -> [ `Sparse of int * int | `Dense of int * int ]
(** [phase_plan t u i] for levels [i ∈ 0..k-1]:
    [`Sparse (center, bound)] or [`Dense (level, cluster_root)] —
    exposed so tests can check the plans against the decomposition. *)
