(** Single-source shortest paths (Dijkstra) and shortest-path trees.

    This is the [T(u)] primitive of the paper: a minimum-cost-path
    spanning tree rooted at a node, plus the distance function [d(u, ·)].
    Ties are broken lexicographically by node index, matching the paper's
    lexicographic tie-breaking convention so that constructions are
    deterministic.  The tree is kept as parent nodes, not ports: routes
    are node walks and port bits are charged by formula, so a reader
    that needs the port at [v] towards [parent.(v)] asks
    {!Graph.port}. *)

type result = {
  source : int;
  dist : float array;  (** [dist.(v)] = d(source, v); [infinity] if unreachable *)
  parent : int array;  (** predecessor on a shortest path; -1 for source/unreachable *)
  order : int array;
      (** the reached nodes (finite [dist]) by (distance, index): the
          settle order, sorted only in the rare case where a relaxation
          of zero length (rounding at extreme aspect ratios) made the two
          differ *)
}

val run : Graph.t -> int -> result
(** Full Dijkstra from a source.  It searches in work arrays that every
    run on the calling domain reuses (grown to the largest graph seen),
    and copies out only [dist], [parent] and [order]: the result's
    arrays are fresh and the caller's own, and a run leaves no heap or
    settle arrays behind.  {!run_bounded} and {!run_restricted} work
    the same way. *)

val run_bounded : Graph.t -> int -> float -> result
(** [run_bounded g s r] explores only nodes at distance [<= r] (others
    keep [infinity] / parent -1).  Cost proportional to the ball size. *)

val run_restricted :
  Graph.t -> allowed:(int -> bool) -> ?max_edge:float -> ?bound:float -> int -> result
(** Dijkstra in the subgraph induced by [allowed] nodes, optionally
    ignoring edges heavier than [max_edge] and/or stopping at distance
    [bound].  The source must be allowed. *)

type scratch
(** Graph-sized arrays that successive runs reuse: a run on a scratch
    costs time in proportion to the nodes and edges it reaches, not to
    the graph. *)

val scratch : Graph.t -> scratch
(** A scratch for runs on this graph. *)

val run_in : scratch -> ?allowed:(int -> bool) -> ?max_edge:float -> ?bound:float -> int -> result
(** [run_in sc s] is {!run_restricted}'s result on [sc]'s graph,
    computed in [sc] ([allowed] defaults to every node).  Its [dist]
    and [parent] arrays are [sc]'s own, valid until the next run on
    [sc]; only [order] is the caller's to keep. *)

val path_to : result -> int -> int list
(** Node sequence from the source to a target along the tree (inclusive).
    @raise Not_found if the target is unreachable. *)

val bellman_ford : Graph.t -> int -> float array
(** Reference SSSP (O(nm)) used only by tests to cross-check Dijkstra. *)

val eccentricity : result -> float
(** Largest finite distance in the result. *)
