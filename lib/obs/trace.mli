(** Hop-level route tracing.

    [Scheme.route] takes an optional {!sink}; when present, the routing
    procedure narrates itself as structured events — which sparse/dense
    phase fired, where the j-bounded tree searches wandered, where a
    failure simulation stalled and deflected.  The contract (tested):

    - with no sink, routing does no extra work and allocates nothing;
    - with a sink, the routed walk is {e bit-identical} to the untraced
      one — events are pure annotation. *)

type phase_kind =
  | Sparse  (** AGM'06 sparse phase: climb to a center, j-bounded Lemma 4 search *)
  | Dense  (** AGM'06 dense phase: home cover cluster, Lemma 7 search *)
  | Global  (** final fallback on the top-rank landmark's spanning tree *)
  | Direct  (** single-shot schemes (full tables, single tree, …) *)
  | Vicinity  (** TZ bunch / S³ vicinity shortest-path hit *)
  | Pivot  (** TZ indirection through a destination pivot *)
  | Color  (** S³ indirection through a color-directory node *)

val kind_to_string : phase_kind -> string

type event =
  | Phase_start of { phase : int; kind : phase_kind; center : int; bound : int }
      (** A search phase begins.  [center] is the tree root / relay node
          the phase targets; [bound] is the search budget [j] for sparse
          phases, the cover level for dense phases, [k] for the global
          phase, and the pivot level for [Pivot]. *)
  | Climb of { phase : int; from_node : int; to_node : int; hops : int }
      (** Tree ascent/descent between the current node and the phase
          center (and back after a negative response). *)
  | Tree_step of { round : int; from_node : int; to_node : int }
      (** One round of a bounded tree search: moving to the trie node
          named by the next hash digit (Lemma 4) or descending to a
          directory node (Lemma 7). *)
  | Phase_result of { phase : int; found : bool; rounds : int }
  | Stall of { at : int; toward : int }
      (** Failure simulation: the planned hop [at -> toward] is dead. *)
  | Deflect of { at : int; via : int }
      (** Failure simulation: local detour to an alive neighbor. *)
  | Replan of { at : int }  (** Failure simulation: fresh route request. *)
  | Deliver of { phase : int; node : int }
  | No_route of { phase : int }
  | Bunch_probe of { level : int; active : int; witness : int; hit : bool }
      (** Oracle query: the level-[level] pivot [witness] of the
          currently-[active] endpoint was probed against the other
          endpoint's bunch. *)
  | Stitch of { via : int; up_hops : int; down_hops : int }
      (** Oracle path report: the returned walk climbs [up_hops] tree
          edges to the meeting witness [via] and descends [down_hops] to
          the destination. *)

type sink = event -> unit

val label : event -> string
(** Stable snake_case name of the constructor — counter keys and the
    ["event"] field of {!event_to_json}. *)

val phase_of : event -> int option
(** The phase an event is attributed to, when it carries one. *)

val event_to_string : event -> string
(** One-line human-readable annotation ([crt trace] table rows). *)

val event_to_json : event -> string
(** One strict-JSON object per event (single line), e.g.
    [{"event":"phase_start","phase":1,"kind":"sparse","center":7,"bound":2}]. *)

val tee : sink -> sink -> sink
(** Fan one event stream into two sinks (e.g. ring buffer + JSONL writer). *)
