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
(** Labeling of one tree. *)

type label
(** Routing label of one node. *)

val build : Tree.t -> t

val tree : t -> Tree.t

val label : t -> int -> label
(** Label of a tree node (graph id).  @raise Not_found if absent. *)

val label_bits : label -> int
(** Exact encoded size of a label in bits. *)

val next_hop : t -> int -> label -> int option
(** [next_hop t v dest] is the local decision at node [v] (graph id)
    heading for [dest]: [None] when [v] is the destination, otherwise
    [Some u] with [u] a tree neighbor of [v]. *)

val route : t -> int -> int -> int list
(** Full route between two tree nodes obtained by iterating
    {!next_hop}; equals the unique tree path. *)

val node_storage_bits : t -> int -> int
(** Bits a node needs to play its part: its own label, its parent port
    and per-child heavy flags/ports. *)

val label_bits_at : t -> int -> int
(** [label_bits] of the label of the node at a tree index, computed
    once by {!build}. *)

val node_storage_bits_at : t -> int -> int
(** {!node_storage_bits} of the node at a tree index. *)

val equal_label : label -> label -> bool
