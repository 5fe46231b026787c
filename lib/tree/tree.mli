(** Rooted spanning trees embedded in a graph.

    These are the [T(u)] objects of the paper: shortest-path trees (or
    cover-cluster trees) whose edges are graph edges, so that walking the
    tree is walking the network.  A tree may span only a subset of the
    graph; nodes pulled in purely to keep member paths connected are
    {e relay} nodes ([is_member] false) — they carry forwarding state but
    no directory entries (see DESIGN.md §2 note 4). *)

type t

val of_sssp : Cr_graph.Graph.t -> Cr_graph.Dijkstra.result -> keep:(int -> bool) -> t
(** [of_sssp g res ~keep] extracts the subtree of the shortest-path tree
    [res] spanning the root and every reachable node with [keep v = true];
    nodes on the connecting paths are added as relays.
    @raise Invalid_argument if no kept node is reachable. *)

val spanning : Cr_graph.Graph.t -> int -> t
(** Full shortest-path tree from a root (all reachable nodes kept). *)

val graph : t -> Cr_graph.Graph.t

val root : t -> int
(** Root as a graph node id. *)

val size : t -> int
(** Number of tree nodes (members + relays). *)

val nodes : t -> int array
(** Graph ids of all tree nodes; index in this array is the node's
    {e tree index}. *)

val mem : t -> int -> bool
(** Whether a graph node belongs to the tree. *)

val is_member : t -> int -> bool
(** Whether a graph node is a (non-relay) member.  False if absent. *)

val tree_index : t -> int -> int
(** Tree index of a graph node.  @raise Not_found if absent. *)

val parent : t -> int -> int
(** Parent (graph id) of a graph node in the tree; -1 for the root. *)

val children : t -> int -> int array
(** Children (graph ids) of a graph node, ascending. *)

val depth : t -> int -> float
(** Weighted distance from the root along tree edges. *)

val hop_depth : t -> int -> int

val radius : t -> float
(** [max_v depth v] — the [rad(T)] of Lemma 6/7. *)

val max_edge : t -> float
(** Heaviest tree edge — the [maxE(T)] of Lemma 6/7. *)

val lca : t -> int -> int -> int
(** Lowest common ancestor of two tree nodes (graph ids). *)

val path : t -> int -> int -> int list
(** Unique tree path between two tree nodes, as graph ids, inclusive of
    both endpoints.  Every consecutive pair is a graph edge. *)

val path_length : t -> int -> int -> float
(** Weighted length of {!path} = [dT(a, b)]. *)

val dfs_order : t -> int array
(** Graph ids in preorder DFS (children visited in ascending id order);
    the root is first.  Cached after first call. *)

val dfs_index : t -> int -> int
(** Position of a graph node in {!dfs_order}.
    @raise Not_found if absent. *)

val subtree_interval : t -> int -> int * int
(** [(lo, hi)] such that the DFS indexes of the subtree of the node are
    exactly [lo .. hi-1]. *)

val members : t -> int array
(** Graph ids of the non-relay members. *)

val by_root_distance : t -> int array
(** All tree nodes (graph ids) sorted by (weighted depth, graph id) —
    the [a_0, a_1, …] enumeration used by Lemma 4. *)
