(** The sparse/dense neighborhood decomposition of §2.

    For every node [u], Definition 1 assigns ranges
    [a(u,0) = 0 < a(u,1) ≤ … ≤ a(u,k)]: [a(u,i+1)] is the smallest
    exponent [j > a-or-0] such that the ball [B(u, 2^j)] holds at least
    [n^{1/k}] times as many nodes as [B(u, 2^{a(u,i)})] (saturating at
    [⌈log₂ Δ⌉] when no such radius exists).  Level [i] is {e dense} when
    [a(u,i) < a(u,i+1) ≤ a(u,i) + 3] (Definition 2) and {e sparse}
    otherwise.

    The module also materializes the derived objects: range sets [L(u)],
    extended range sets [R(u) = {i : ∃a ∈ L(u), −1 ≤ a − i ≤ 4}], the
    level-graph membership [V_i = {u : i ∈ R(u)}], and the neighborhoods
    [A(u,i)], [F(u,i) = B(u, 2^{a(u,i)−1})], [E(u,i) = B(u,
    2^{a(u,i+1)}/6)]. *)

type t

val build : Cr_graph.Apsp.t -> k:int -> t
(** Requires a normalized graph (min edge weight 1; see
    {!Cr_graph.Graph.normalize}) so that [min d(u,v) = 1] as the paper
    assumes.  @raise Invalid_argument if [k < 1]. *)

val log_delta : t -> int
(** [⌈log₂ (max pairwise distance)⌉] — the saturation exponent. *)

val range : t -> int -> int -> int
(** [range t u i] = [a(u,i)], for [i ∈ 0..k]. *)

val is_dense : t -> int -> int -> bool
(** [is_dense t u i] for [i ∈ 0..k-1] (Definition 2). *)

val neighborhood : t -> int -> int -> int array
(** [A(u,i)]: [{u}] for [i = 0], else [B(u, 2^{a(u,i)})]. *)

val neighborhood_size : t -> int -> int -> int

val f_set : t -> int -> int -> int array
(** [F(u,i) = B(u, 2^{a(u,i)−1})] — what a dense phase must cover. *)

val e_set : t -> int -> int -> int array
(** [E(u,i) = B(u, 2^{a(u,i+1)}/6)] — what a sparse phase must cover.
    Only valid for [i ≤ k−1]. *)

val range_set : t -> int -> int list
(** [L(u)], ascending, without duplicates. *)

val extended_range_set : t -> int -> int list
(** [R(u)], ascending. *)

val in_level_graph : t -> int -> int -> bool
(** [in_level_graph t u i] = [u ∈ V_i] = [i ∈ R(u)]. *)

val level_nodes : t -> int -> int array
(** Members of [V_i], ascending. *)

val needed_levels : t -> int list
(** All [i] with [V_i ≠ ∅], ascending — the scales at which dense-level
    covers must be built. *)

val dense_level_count : t -> int -> int
(** Number of dense levels of a node — [O(log n)] per §1.2; checked by
    experiment F2. *)

val radius_of_exponent : int -> float
(** [2^j] as a float. *)
