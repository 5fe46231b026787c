(** The Thorup–Zwick sampled hierarchy [30]: levels, pivots and the
    bunch test, written once for {!Baseline_tz}, {!Distance_oracle} and
    [Cr_oracle.Path_oracle].

    - Levels [A₀ = V ⊇ A₁ ⊇ … ⊇ A_{k−1}]: a node in [A_j] joins
      [A_{j+1}] with probability [n^{−1/k}].  If no node reaches
      [A_{k−1}], node 0 is placed there, so the top level is never
      empty.
    - Pivots: [p_j(u)] is the closest [A_j] node to [u], ties broken by
      the smaller index — the first [A_j] node of u's Dijkstra order,
      which lists nodes by (distance, index).
    - Bunches:
      [B(u) = ∪_j {w ∈ A_j \ A_{j+1} : d(u,w) < d(u, p_{j+1}(u))}],
      with [d(u, p_k(u)) = ∞].

    Each user keeps its own bunch storage and fills it with
    {!in_bunch}. *)

(** How levels are drawn from the seed. *)
type sampling =
  | Sequential  (** one stream, drawn node by node in index order: the oracles' *)
  | Node_indexed
      (** a stream per node, from [seed + 7919·v]: adding node [n]
          leaves the levels of nodes [0 … n−1] as they were, which
          {!Baseline_tz}'s incremental-rebuild comparison (T9) needs *)

type t = private {
  k : int;
  level : int array;  (** [level.(v)]: the largest [j] with [v ∈ A_j] *)
  pivots : int array array;
      (** [pivots.(u).(j)] is [p_j(u)]; [-1] if no [A_j] node is
          reachable from [u] *)
  pivot_dist : float array array;  (** [d(u, p_j(u))]; [infinity] if none *)
}

val build : sampling -> k:int -> seed:int -> Cr_graph.Apsp.t -> t
(** @raise Invalid_argument if [k < 1]. *)

val in_bunch : t -> int -> int -> float array -> int -> bool
(** [in_bunch t u w row i] is [w ∈ B(u)], where [row.(i)] is the
    caller's reading of [d(u, w)]: [row.(i) < d(u, p_{level(w)+1}(u))].
    Never true when [row.(i)] is [infinity]. *)
