(** Name-independent error-reporting tree routing — Lemma 4 of the paper.

    Given a weighted tree [T] with designated root [r] and a parameter
    [k], every tree node gets three names (§3.1):

    - a {e primary name}: a word over [Σ = {0,…,σ−1}] assigned in
      increasing order of distance from the root — the root is the empty
      word, the next [σ] nodes get 1-digit names, the next [σ²] get
      2-digit names, and so on (ties broken by node id);
    - a {e routing label} [λ(T,v)] from the labeled scheme of Lemma 5
      ({!Tree_labels});
    - a {e hash name} [h(v) ∈ Σ^k] of its {e network identifier},
      computed by a seeded hash ({!Cr_util.Digit_hash}).

    A node with primary name [x] of [j] digits stores (1) its labeled
    routing info, (2) the labels of its name-trie children [x·y], and
    (3) a directory: the labels of the [σ·⌈log₂ n⌉] nodes closest to the
    root whose hash name has prefix [x].

    A [j]-bounded search from the root for a destination {e identifier}
    walks the trie nodes named by successive hash digits of the
    identifier, checking each directory; it either reaches the
    destination with stretch [≤ 2j−1], or returns a negative response to
    the root at cost [≤ (2j−2)·max{d(r,v) : v ∈ V_{j−1}}] (Lemma 4(2b)).

    The construction validates the hash prefix-load requirement of the
    paper and re-seeds the hash until it holds, mirroring the
    with-high-probability argument. *)

type t

type outcome =
  | Found of int  (** destination graph node *)
  | Not_found_reported  (** negative response delivered back to the root *)

type search_result = {
  walk : int list;  (** graph nodes visited, starting at the root *)
  outcome : outcome;
  rounds : int;  (** trie rounds executed *)
}

val build :
  ?seed:int ->
  k:int ->
  n_global:int ->
  Cr_graph.Graph.t ->
  Cr_graph.Dijkstra.result ->
  members:int array ->
  t
(** [build ~k ~n_global g res ~members] names and wires the tree
    [Tree.of_sssp g res ~members] (shortest-path tree [res] of [g], cut
    down to its root and the reachable [members], with relays).
    [n_global] is the network size [n] used for [σ = ⌈n^{1/k}⌉] and
    directory capacity [σ·⌈log₂ n⌉], per the paper's global parameters.
    Names follow the result's [order]: (distance, index).
    @raise Invalid_argument if [k < 1], if no member is reachable, or if
    a parent edge of [res] is not an edge of [g]. *)

val add_storage_bits :
  ?seed:int ->
  k:int ->
  n_global:int ->
  Cr_graph.Graph.t ->
  Cr_graph.Dijkstra.result ->
  members:int array ->
  int array ->
  unit
(** [add_storage_bits ~k ~n_global g res ~members bits] adds to
    [bits.(v)], for every node [v] of that tree, [node_storage_bits t v]
    of [t = build ~k ~n_global g res ~members] — the same accounting,
    without building the tree, its labels or its directory.  It runs in
    scratch that every call on the domain reuses, so a tree that is only
    counted allocates nothing in proportion to its size.
    @raise Invalid_argument as {!build}. *)

val tree : t -> Tree.t

val sigma : t -> int

val directory_capacity : t -> int

val hash_seed : t -> int
(** The seed of the hash that passed validation: [build]'s [seed] unless
    that one overloaded a directory and the tree was re-seeded. *)

val directory : t -> Directory.t
(** The directories: slot {!position}[ t v] is node [v]'s, mapping
    network identifiers to tree indexes. *)

val position : t -> int -> int
(** Position of a tree node (graph id) in the (root distance, index)
    enumeration that names the nodes.  @raise Not_found if absent. *)

val name_of : t -> int -> int array
(** Primary name (digit array, possibly empty for the root) of a tree
    node given by graph id.  @raise Not_found if absent. *)

val name_digits : t -> int -> int
(** Number of digits of the primary name — the node's "name level".
    The minimal [j] for which a [j]-bounded search is guaranteed to find
    this node is [max 1 (name_digits t v)]. *)

val search : ?trace:Cr_obs.Trace.sink -> t -> bound:int -> int -> search_result
(** [search t ~bound ident] performs a [bound]-bounded search from the
    root for the node whose {e network identifier} is [ident] (which need
    not be in the tree: then the search reports a negative response).
    [bound] is clamped to [\[1, k\]].  With [trace], every trie move
    (and the final hop to a directory hit) is emitted as a
    [Tree_step]; the returned walk is identical either way. *)

val guaranteed_bound : t -> int array -> int
(** [guaranteed_bound t vs] is the minimal [j] such that a [j]-bounded
    search finds every graph node in [vs] — the [b(u,i)] of §3.1.
    Nodes absent from the tree yield [k] (full search; may still fail). *)

val node_storage_bits : t -> int -> int
(** Bits stored at one tree node: hash function, own routing info, trie
    child labels, directory entries. *)

val total_storage_bits : t -> int

val max_prefix_load : t -> int
(** Largest directory-qualifying population observed when validating the
    hash (diagnostics for the Claim-style tests). *)
