(** The landmark hierarchy of §2.3: nested sets
    [V = C₀ ⊇ C₁ ⊇ … ⊇ C_k = ∅].

    Each element of [C_{j-1}] survives into [C_j] independently with
    probability [(n / ln n)^{−1/k}] (seeded, hence reproducible — our
    stand-in for the paper's de-randomization).  A node's {e rank} is the
    largest [j] with [x ∈ C_j].

    Claims 1 and 2 of the paper say: (1) every ball of at least
    [4(ln n)^{(k−j)/k} n^{j/k}] nodes hits [C_j]; (2) every ball of fewer
    than [4(ln n)^{(k−(j+1))/k} n^{(j+2)/k}] nodes contains at most
    [16 n^{2/k} ln n] elements of [C_j].  {!check_claim1} and
    {!check_claim2} evaluate them on concrete balls for the T6
    experiment. *)

type t

val build : seed:int -> n:int -> k:int -> t
(** Sample the hierarchy over nodes [0 .. n-1].
    @raise Invalid_argument if [k < 1] or [n < 1]. *)

val n : t -> int

val k : t -> int

val rank : t -> int -> int
(** Rank of a node, in [0 .. k-1]. *)

val in_level : t -> int -> int -> bool
(** [in_level t v j] = [v ∈ C_j].  [C_0] is everything; [C_k] is empty. *)

val level : t -> int -> int array
(** Members of [C_j], ascending.  [level t 0] is all nodes. *)

val level_size : t -> int -> int

val nearby : t -> Cr_graph.Ball.t -> level:int -> cap:int -> int array
(** [nearby t ball ~level ~cap] = [N(u, cap, C_level)]: the up-to-[cap]
    closest level-[level] landmarks to the ball's source — the [S(u,i)]
    sets of the paper (with [cap] supplied by the caller's parameters). *)

val nearby_set : t -> Cr_graph.Ball.t -> cap:int -> int array
(** [nearby_set t ball ~cap] = [S(u)], the union of {!nearby} over the
    levels [0 .. k-1], closest first — computed in one scan of the
    ball. *)

val highest_rank_in : t -> int array -> int
(** Largest rank present among the given nodes — [m(u,i)] for a
    neighborhood ball given as its member array; -1 on an empty array. *)

val center_in : t -> Cr_graph.Ball.t -> radius:float -> int option
(** [center_in t ball ~radius] is the closest node to the source among
    the highest-rank landmarks within the radius — the [c(u,i)] of §2.3.
    [None] when the ball is empty. *)

val claim1_threshold : t -> int -> float
(** [4 (ln n)^{(k−j)/k} n^{j/k}] — the ball-size threshold of Claim 1. *)

val claim2_size_limit : t -> int -> float
(** [4 (ln n)^{(k−(j+1))/k} n^{(j+2)/k}] — the ball-size precondition of
    Claim 2. *)

val claim2_count_limit : t -> float
(** [16 n^{2/k} ln n] — the landmark-count bound of Claim 2. *)

val check_claim1 : t -> int array -> int -> bool
(** [check_claim1 t ball_members j]: vacuously true when the ball is
    below the Claim 1 threshold; otherwise true iff the ball intersects
    [C_j]. *)

val check_claim2 : t -> int array -> int -> bool
(** [check_claim2 t ball_members j]: vacuously true when the ball is at
    least the Claim 2 size limit; otherwise true iff it holds at most
    [16 n^{2/k} ln n] rank-[≥ j] landmarks of level [j]. *)
