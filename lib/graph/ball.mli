(** Ball and nearest-neighbor queries around one source node.

    Implements the paper's primitives (§2.1):
    - [B(u, r)]: the set of nodes at distance at most [r] from [u];
    - [N(u, m, Z)]: the [m] nodes of [Z] closest to [u], ties broken
      lexicographically by node index.

    A view of a Dijkstra result, whose [order] already lists the
    reachable nodes by (distance, index): building one copies and sorts
    nothing, and queries are O(log n) (sizes), O(1) ({!kth}) or
    O(answer) (enumerations). *)

type t

val of_dijkstra : Dijkstra.result -> t
(** The ball index of one source, sharing the result's arrays (so not
    of a {!Dijkstra.run_in} result that a later run will overwrite).
    Unreachable nodes are excluded from every ball. *)

val source : t -> int

val reachable : t -> int
(** Number of nodes at finite distance (including the source). *)

val ball_size : t -> float -> int
(** [ball_size t r] = |B(u, r)|. *)

val ball : t -> float -> int array
(** Members of [B(u, r)] in nondecreasing distance order (lexicographic
    tie-break). *)

val kth : t -> int -> int
(** [kth t m] is the [m]-th closest node (1-based; [kth t 1] is the
    source): enumerates a ball without copying it.
    @raise Invalid_argument if [m] exceeds {!reachable}. *)

val kth_distance : t -> int -> float
(** [kth_distance t m] is the distance of the [m]-th closest node
    (1-based; [kth_distance t 1 = 0.] for the source itself).
    @raise Invalid_argument if [m] exceeds {!reachable}. *)

val closest : t -> int -> int array
(** [closest t m] = [N(u, m, V)]: the [min m reachable] closest nodes, in
    order. *)

val closest_in : t -> int -> (int -> bool) -> int array
(** [closest_in t m pred] = [N(u, m, Z)] for [Z = {v | pred v}]:
    the up-to-[m] closest nodes satisfying [pred], in order. *)

val distance : t -> int -> float
(** Distance from the source to a node ([infinity] if unreachable). *)
