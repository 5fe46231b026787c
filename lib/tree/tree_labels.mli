(** Labeled (stretch-1) routing on a tree — the Lemma 5 substrate.

    Fraigniaud–Gavoille / Thorup–Zwick tree routing: every node gets a
    short {e label}; given only its own label and the destination label, a
    node decides the next tree hop locally, and the induced route is the
    unique (hence shortest) tree path.

    The implementation uses heavy-path decomposition: a label is the
    sequence of (offset, child-slot) branch points at which the
    root-to-node path leaves a heavy path, plus the final offset — at most
    [⌊log₂ m⌋] branch entries, for [O(log² m)]-bit labels, matching the
    [O(k log m)]–[O(log² m)] range of Lemma 5. *)

type t
(** Labeling of one tree: each node's heavy child and bit counts.  A
    label record is built only on request ({!label}). *)

type label
(** Routing label of one node. *)

val build : Tree.t -> t

val label : t -> int -> label
(** Label of a tree node (graph id), built on request in time
    proportional to the node's depth.  @raise Not_found if absent. *)

val label_bits : label -> int
(** Exact encoded size of a label in bits. *)

val next_hop : t -> int -> label -> int option
(** [next_hop t v dest] is the local decision at node [v] (graph id)
    heading for [dest]: [None] when [v] is the destination, otherwise
    [Some u] with [u] a tree neighbor of [v]. *)

val route : t -> int -> int -> int list
(** Full route between two tree nodes obtained by iterating
    {!next_hop}; equals the unique tree path. *)

val label_bits_at : t -> int -> int
(** [label_bits] of the label of the node at a tree index, computed
    once by {!build} without building the label. *)

val node_storage_bits_at : t -> int -> int
(** Bits the node at a tree index needs to play its part: its own label
    (at per-tree fixed field widths), its parent port and its
    heavy-child port. *)

val equal_label : label -> label -> bool

(** {2 The label rule on a bare tree shape} *)

val bits_of_shape :
  n:int ->
  m:int ->
  order:int array ->
  first_child:int array ->
  next_sibling:int array ->
  heavy:int array ->
  label_bits:int array ->
  storage_bits:int array ->
  unit
(** The rule {!build} applies, for callers that hold a tree as bare
    arrays.  Nodes are the indexes [0 .. m-1]; [order.(0 .. m-1)] lists
    them parents first, the root first; the children of [x], in
    ascending graph id, are [first_child.(x)], then [next_sibling] of
    each in turn, until [-1].  Fills [heavy.(x)] (the heavy child, [-1]
    for a leaf), [label_bits.(x)] ({!label_bits_at}) and
    [storage_bits.(x)] ({!node_storage_bits_at}) for every node; [n] is
    the network size.  Allocates nothing in proportion to the tree. *)
