(** Closed witness tables, shared by {!Path_oracle} and
    {!Sparse_oracle}.

    Per node [u], a map from a target [w] to an {!entry}: [d(u, w)] and
    [u]'s neighbor toward [w] on the shortest-path tree of [w].  Once
    {!close}d, every stored [(u, w)] has every [(x, w)] on the tree path
    [u → w] stored too, so {!chain} never dead-ends, even where
    floating-point distance sums break a tie by an ulp.  Entry values
    are pure functions of [(x, w)], so the table does not depend on
    insertion order. *)

type entry = { dist : float; next : int  (** [-1] at the target itself *) }

type t

val create : int -> t
(** Empty tables for [n] nodes. *)

val add : t -> Cr_graph.Dijkstra.result -> int -> int -> unit
(** [add t sw w u] stores [(u, w)] read from [sw], the shortest-path
    tree of [w]. *)

val find : t -> int -> int -> entry option
(** [find t u w] is the stored [(u, w)] entry. *)

val close_chain : t -> Cr_graph.Dijkstra.result -> int -> int -> int
(** [close_chain t sw w u] stores every missing entry on the tree path
    [u → w] of [sw], and [(w, w)]; returns how many it added.
    @raise Invalid_argument on a broken or cyclic parent chain. *)

val close : t -> Cr_graph.Apsp.t -> int
(** Closes the chain of every stored entry; returns how many entries
    it added. *)

val chain : t -> int -> int -> int list
(** [chain t x w] is the walk [x → … → w] through the next hops.
    @raise Invalid_argument if the table is not closed on that chain. *)

val entries : t -> int
(** Entries stored over all nodes. *)

val node_entries : t -> int -> int
(** Entries stored at one node. *)
