(** Walk validation and stretch measurement.

    Schemes produce walks; this module is the referee: it checks that a
    walk is realizable in the network (consecutive nodes adjacent, right
    endpoints), prices it, and compares it to the true shortest-path
    distance from the all-pairs ground truth.

    Every anomaly a walk can exhibit is classified by the shared
    {!outcome} type, which the failure-aware replay in
    [Cr_resilience.Fsim] reuses: there, faults, hop budgets and loops
    produce the additional constructors. *)

type outcome =
  | Delivered  (** walk is valid and ends at the destination *)
  | No_route  (** scheme honestly reported non-delivery; walk is valid *)
  | Dropped_at_fault of int * int
      (** message stalled on a failed edge [(u,v)] or crashed node
          ([(v,v)]); produced by the failure-aware simulator *)
  | Ttl_exceeded  (** hop budget exhausted before delivery *)
  | Loop_detected  (** the forwarding trace revisited a state: a routing loop *)
  | Invalid_hop of string
      (** the walk itself is malformed: wrong endpoints, a non-edge, or a
          node index out of range *)

val outcome_to_string : outcome -> string

val is_delivered : outcome -> bool

type measured = {
  src : int;
  dst : int;
  delivered : bool;
  cost : float;  (** total weight of the walk *)
  hops : int;
  stretch : float;  (** cost / d(src,dst); 1.0 for src = dst; infinite when undelivered *)
}

exception Invalid_walk of string
(** Raised by the legacy entry points when a scheme emits a walk that is
    not realizable ({!check_walk} classified it as [Invalid_hop]). *)

type checked = {
  outcome : outcome;  (** [Delivered], [No_route] or [Invalid_hop] *)
  checked_cost : float;  (** weight of the valid prefix *)
  checked_hops : int;
}

val check_walk :
  Cr_graph.Graph.t -> src:int -> dst:int -> delivered:bool -> int list -> checked
(** Structured, non-raising walk validation: endpoint checks, range
    checks and edge-existence checks, pricing the longest valid prefix.
    Never raises. *)

val walk_cost : Cr_graph.Graph.t -> int list -> float * int
(** Cost and hop count of a walk.
    @raise Invalid_walk on a non-edge or an empty walk. *)

val stretch : delivered:bool -> cost:float -> float -> float
(** [stretch ~delivered ~cost d] prices a walk of weight [cost] against
    the shortest distance [d]: [cost /. d], 1.0 when [d = 0] (source =
    destination), infinite when undelivered or unreachable.  Scheme,
    oracle, resilience and daemon answers are all priced by it. *)

val measure : Cr_graph.Apsp.t -> Scheme.t -> int -> int -> measured
(** Routes [src → dst] through the scheme and validates/prices the result
    via {!check_walk}.
    @raise Invalid_walk if the walk is malformed (wrong endpoints,
    non-edges, or claimed delivery to the wrong node). *)

type aggregate = {
  pairs : int;
  delivered : int;
  stretch_stats : Cr_util.Stats.summary;  (** over delivered pairs *)
  stretches : float array;  (** raw per-pair stretch values, delivered pairs *)
}

val measure_all :
  ?pool:Cr_util.Domain_pool.t ->
  Cr_graph.Apsp.t -> Scheme.t -> (int * int) array -> measured array
(** [measure_all ?pool apsp scheme pairs] measures every pair into a
    result array with [result.(i)] for [pairs.(i)].  With [pool], the
    queries are sharded across the pool's domains; since {!measure} is
    a pure function of its arguments and every query writes its own
    slot, the array is bit-identical to the sequential one.  Schemes
    must therefore be safe to query from several domains: all schemes
    in this repo route from immutable preprocessed tables (the AGM06
    live counters are atomic).
    @raise Invalid_walk as {!measure} (from any domain, re-raised in
    the caller). *)

val aggregate_of_measured : measured array -> aggregate
(** Folds a result array (in index order, so summaries are reproducible
    bit-for-bit) into an {!aggregate}. *)

val evaluate :
  ?pool:Cr_util.Domain_pool.t ->
  Cr_graph.Apsp.t -> Scheme.t -> (int * int) array -> aggregate
(** Measures every pair and summarizes
    ([aggregate_of_measured (measure_all ?pool ...)]).  Undelivered
    pairs count in [pairs] but not in the stretch statistics. *)

exception Sample_shortfall of { requested : int; found : int }
(** Raised by {!sample_pairs} when the rejection-sampling guard expired
    before finding the requested number of connected pairs — aggregates
    must never be computed over a quietly truncated sample. *)

val sample_pairs :
  ?allow_short:bool ->
  Cr_util.Rng.t -> Cr_graph.Apsp.t -> count:int -> (int * int) array
(** Samples distinct connected [src ≠ dst] pairs uniformly (with
    replacement across pairs).
    @raise Sample_shortfall if fewer than [count] pairs were found on a
    sparse or near-disconnected graph, unless [allow_short] is [true]
    (in which case the short array is returned). *)
