(** Blast-radius assessment of one mutation against the serving scheme.

    Maps a mutation to the scheme components it can reach: the APSP
    sources whose single-source results change
    ({!Cr_graph.Apsp.dirty_sources} — the set the incremental repair
    actually recomputes), and, through the dirty sources' phase plans,
    the landmark levels, sparse-phase trees and dense cover levels
    their routes traverse.  The daemon reports these in each batch's
    [repair] event and sizes its repair against [sources]; the component
    lists quantify how local a mutation is at the scheme layer (the
    scheme itself is rebuilt deterministically from the repaired ground
    truth — see DESIGN.md §9 for why that is what keeps repair
    bit-equivalent to a from-scratch build). *)

type impact = {
  sources : int;  (** dirty APSP sources the repair recomputes *)
  levels : int list;  (** landmark levels on some dirty node's plan *)
  sparse_trees : int list;  (** distinct sparse-phase tree centers *)
  dense_covers : int list;  (** distinct dense cover levels *)
}

val no_impact : impact

val assess :
  Compact_routing.Agm06.t -> Cr_graph.Apsp.t -> Cr_graph.Graph.mutation -> impact
(** Evaluated against the pre-mutation ground truth (the same contract
    as {!Cr_graph.Apsp.dirty_sources}).
    @raise Invalid_argument if the mutation does not apply. *)

val to_string : impact -> string
(** Compact one-line rendering for logs. *)
