(** The common shape of every routing scheme in the evaluation.

    A scheme is a preprocessed object exposing [route src dst]: both
    endpoints are node {e indexes}, but a name-independent scheme must
    only consult the destination's {e network identifier}
    ([Graph.name_of g dst]) — the index is a simulation convenience.
    The returned walk is validated independently by {!Simulator}: every
    consecutive pair must be a graph edge, the walk must start at [src]
    and, when [delivered], end at [dst].

    [route] optionally takes a {!Cr_obs.Trace.sink}: schemes narrate
    their phases and tree searches as structured events.  The contract
    (DESIGN.md §7, tested in test/test_obs.ml): with no sink the call
    does no observability work, and the returned route is bit-identical
    with and without a sink. *)

type route = {
  walk : int list;  (** visited node indexes, starting with the source *)
  delivered : bool;
  phases_used : int;  (** search phases executed (1 for direct schemes) *)
}

type t = {
  name : string;
  graph : Cr_graph.Graph.t;
  storage : Storage.t;
  header_bits : int;
      (** worst-case message-header size: the paper claims Õ(1)-bit
          headers for its scheme (destination identifier, phase counter,
          and the in-flight routing label) *)
  route : ?trace:Cr_obs.Trace.sink -> int -> int -> route;
}

val default_header_bits : n:int -> int
(** Destination identifier plus a hop/phase counter: [2·⌈log n⌉ + 16]. *)

val label_header_bits : n:int -> int
(** {!default_header_bits} plus an in-flight tree-routing label of
    [O(log² n)] bits — what the tree-search schemes carry. *)
