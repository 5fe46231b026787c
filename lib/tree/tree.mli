(** Rooted spanning trees embedded in a graph.

    These are the [T(u)] objects of the paper: shortest-path trees (or
    cover-cluster trees) whose edges are graph edges, so that walking the
    tree is walking the network.  A tree may span only a subset of the
    graph; nodes pulled in purely to keep member paths connected are
    {e relay} nodes ([is_member] false) — they carry forwarding state but
    no directory entries (see DESIGN.md §2 note 4). *)

type t

val of_sssp : Cr_graph.Graph.t -> Cr_graph.Dijkstra.result -> members:int array -> t
(** [of_sssp g res ~members] extracts the subtree of the shortest-path
    tree [res] spanning the root and every reachable node of [members];
    nodes on the connecting paths are added as relays.  Time and space
    are proportional to the tree, not to the graph: only the tree's own
    entries of [res] are read.
    @raise Invalid_argument if no member is reachable. *)

val spanning : Cr_graph.Graph.t -> int -> t
(** Full shortest-path tree from a root (all reachable nodes kept). *)

val graph : t -> Cr_graph.Graph.t

val root : t -> int
(** Root as a graph node id. *)

val size : t -> int
(** Number of tree nodes (members + relays). *)

val nodes : t -> int array
(** Graph ids of all tree nodes, ascending; index in this array is the
    node's {e tree index}. *)

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
    the root is first. *)

val dfs_index : t -> int -> int
(** Position of a graph node in {!dfs_order}.
    @raise Not_found if absent. *)

val dfs_node : t -> int -> int
(** [dfs_node t q] is the graph id at position [q] of {!dfs_order}. *)

val subtree_interval : t -> int -> int * int
(** [(lo, hi)] such that the DFS indexes of the subtree of the node are
    exactly [lo .. hi-1]. *)

val members : t -> int array
(** Graph ids of the non-relay members. *)

(** {2 By tree index}

    Accessors keyed by tree index, for construction passes that visit
    every node of a tree and so should not look each one up. *)

val parent_at : t -> int -> int
(** Tree index of the parent; -1 for the root. *)

val children_at : t -> int -> int array
(** {!children} (graph ids) by tree index. *)

val is_member_at : t -> int -> bool
(** {!is_member} by tree index. *)

val preorder : t -> int array
(** Tree indexes in {!dfs_order}; the array is the tree's own, not to be
    modified. *)
