(** Baseline: Thorup–Zwick labeled compact routing [29, 30].

    The {e labeled} counterpart on the trade-off curve: node addresses
    are chosen by the scheme designer ([o(k log² n)]-bit labels carrying
    the destination's pivots), which the paper's model explicitly rules
    out — it is included to quantify the price of name independence.

    Construction: the {!Tz_hierarchy} — sampled levels
    [A₀ = V ⊇ A₁ ⊇ … ⊇ A_{k−1}] (probability [n^{−1/k}] per level),
    pivots [p_j(u)] (closest [A_j] node), bunches
    [B(u) = ∪_j {w ∈ A_j \ A_{j+1} : d(u,w) < d(u, p_{j+1}(u))}] —
    with levels drawn from a node-indexed stream, so a joining node
    leaves every other node's level as it was.
    A node stores routes to its bunch; the label of [v] lists
    [v, p_1(v), …, p_{k−1}(v)].  Routing forwards to the first pivot of
    [v] found in the source's bunch, then down that pivot's
    shortest-path tree; stretch is bounded by [4k−5] (TZ Thm 4.1 trade-off;
    measured values are far lower on benign graphs). *)

val build : ?k:int -> ?seed:int -> Cr_graph.Apsp.t -> Scheme.t
(** [k] defaults to 3.  @raise Invalid_argument if [k < 1]. *)

val label_vectors : ?k:int -> ?seed:int -> Cr_graph.Apsp.t -> int array array
(** The label (address) the scheme assigns to each node:
    [(v, p₁(v), …, p_{k−1}(v))].  These are the addresses every sender
    must know — the paper's introduction argues that on a node join they
    may all have to be recomputed and redistributed, which experiment T9
    quantifies.  @raise Invalid_argument if [k < 1]. *)
