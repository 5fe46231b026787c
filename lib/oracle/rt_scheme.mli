(** Roditty–Tov-style routing baseline over the path-reporting oracle.

    The 8th scheme of the roster (name ["rt"]): route [src → dst] along
    the walk {!Path_oracle.path} stitches.  The oracle's bunch tables
    double as routing tables — every entry already stores the next hop
    toward its witness — so per-node storage is charged as
    [oracle_bunch] (witness id + distance + next-hop id per entry) plus
    [oracle_pivot] ([k] ids + distances), and the scheme inherits the
    oracle's [2k − 1] stretch.  Headers carry the stitched-path label:
    {!Compact_routing.Scheme.label_header_bits}.

    Traced routes narrate the oracle's [Bunch_probe]/[Stitch] events
    followed by [Deliver] (phase = levels probed) or [No_route]. *)

val make : ?k:int -> ?seed:int -> Cr_graph.Apsp.t -> Compact_routing.Scheme.t
(** [k] defaults to 3, [seed] to 31 — {!Path_oracle.build}'s defaults.
    @raise Invalid_argument if [k < 1]. *)

val of_oracle : Cr_graph.Graph.t -> Path_oracle.t -> Compact_routing.Scheme.t
(** [of_oracle g o] is the scheme over an oracle [o] already built on
    [g]'s APSP — {!make} without a second build, for callers that also
    read the oracle. *)
