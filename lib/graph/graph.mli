(** Weighted undirected graphs with port-numbered adjacency.

    This is the network model of the paper (§2.1): a weighted graph
    [G = (V, E, ω)] with positive edge weights and [n] nodes carrying
    arbitrary names.  Nodes are indexed [0 .. n-1] internally; the
    arbitrary (name-independent) identifiers live in a separate
    {!field:names} array so that schemes can be tested against adversarial
    namings.

    The adjacency of each node is an ordered array of (neighbor, weight)
    pairs; the index of an entry is the {e port} by which a routing table
    refers to that link, matching the local-decision model of compact
    routing. *)

type t = private {
  n : int;  (** number of nodes *)
  m : int;  (** number of undirected edges *)
  adj : (int * float) array array;
      (** [adj.(u)] lists [(v, w)] for each edge incident to [u], sorted by
          neighbor index; the position in this array is the port number. *)
  names : int array;
      (** [names.(u)] is the arbitrary network identifier of node [u]. *)
}

val create : ?names:int array -> n:int -> (int * int * float) list -> t
(** [create ~n edges] builds a graph on [n] nodes from an undirected edge
    list.  Self-loops are rejected; parallel edges are merged keeping the
    minimum weight; weights must be strictly positive.  [names] defaults
    to the identity naming.
    @raise Invalid_argument on malformed input. *)

val n : t -> int

val m : t -> int

val hash : t -> int
(** Structural fingerprint: folds [(n, m)] with a bounded prefix of the
    adjacency (sampled nodes' degrees, neighbor indexes and exact
    weight bits), so it is O(1) in the graph size but separates graphs
    that merely share node/edge counts.  Deterministic for equal
    structure; used to salt shared plan-cache fingerprints so cache
    keys are tied to the graph they were computed on. *)

val degree : t -> int -> int

val max_degree : t -> int

val neighbors : t -> int -> (int * float) array
(** Adjacency array of a node (do not mutate). *)

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Iterates every undirected edge once, with [u < v]. *)

val edges : t -> (int * int * float) list
(** Edge list with [u < v]. *)

val edge_weight : t -> int -> int -> float option
(** Weight of edge [(u,v)] if present. *)

val has_edge : t -> int -> int -> bool

val port : t -> int -> int -> int option
(** [port g u v] is the port at [u] leading to [v], if the edge exists. *)

val via_port : t -> int -> int -> int * float
(** [via_port g u p] is the (neighbor, weight) reached from [u] through
    port [p].
    @raise Invalid_argument if [p] is out of range. *)

val name_of : t -> int -> int
(** Network identifier of a node index. *)

val min_weight : t -> float
(** Smallest edge weight; [infinity] on an edgeless graph. *)

val max_weight : t -> float
(** Largest edge weight; [0.] on an edgeless graph. *)

val normalize : t -> t
(** Rescales all weights so the minimum edge weight is [1.0], the
    normalization the paper assumes ("assume min d(u,v) = 1", §2.1). *)

val reweight : t -> (int -> int -> float -> float) -> t
(** [reweight g f] replaces each edge weight [w] of edge [(u,v)] by
    [f u v w] (must stay positive). *)

val induced : t -> int array -> t * int array
(** [induced g nodes] is the subgraph induced by the given node indexes
    (which must be distinct).  Returns the subgraph (whose node [i]
    corresponds to [nodes.(i)], and inherits its name) and the [nodes]
    array itself as the index map back to [g]. *)

(** {2 Online mutations}

    The churn vocabulary of the route daemon ([Cr_daemon]).  Mutations
    are persistent: {!apply} returns a fresh graph and never touches
    its input, so a serving epoch keeps routing from the old graph
    while repair rebuilds over the new one. *)

type mutation =
  | Set_weight of int * int * float
      (** reweight an existing edge (adjacency — and therefore every
          port number — is preserved exactly) *)
  | Link_down of int * int  (** remove an existing edge *)
  | Link_up of int * int * float  (** insert a missing edge *)
  | Node_down of int  (** crash: remove every incident edge *)
  | Node_up of int
      (** recover: the node returns isolated; links are re-established
          by explicit [Link_up]s (structurally a no-op) *)

val mutation_to_string : mutation -> string
(** The mutation-log / daemon-protocol spelling ([setw u v w],
    [linkdown u v], [linkup u v w], [nodedown u], [nodeup u]); parsed
    back by [Gio.mutation_of_tokens]. *)

val apply : t -> mutation -> t
(** Applies one mutation, validating it against the current graph
    (range checks, positive finite weights, edge existence for [setw]
    and [linkdown], absence for [linkup]).
    @raise Invalid_argument on an inapplicable mutation. *)

val apply_all : t -> mutation list -> t
(** Left fold of {!apply}. *)

val relabel : Cr_util.Rng.t -> t -> t
(** Assigns fresh uniformly random distinct identifiers to all nodes —
    the adversarial arbitrary naming of the name-independent model. *)
