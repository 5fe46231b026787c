(** Long-running route daemon: online churn with incremental
    self-healing repair.

    The daemon answers [route]/[dist]/[path] queries from an immutable
    last-good {e epoch} — graph, ground truth, scheme and path oracle,
    swapped whole under a mutex, never torn — while accepted mutations
    queue for a background repair domain.  Repair is incremental at the
    ground-truth layer ({!Cr_graph.Apsp.repair_mutation} recomputes
    only dirty sources, chained one mutation at a time) and
    deterministic at the scheme layer (a rebuild over the repaired
    ground truth, bit-equivalent to a from-scratch build at the final
    graph — DESIGN.md §9).  Queries are never blocked by repair: they
    are admitted through the guard stack (shed on repair backlog,
    breaker, per-query deadline, bounded retry under chaos injection)
    and answered from the serving epoch, with the resulting staleness
    measured rather than hidden (answers are periodically re-priced
    against the live post-mutation graph, off the reply path).

    Thread model: {!handle} is called from one client thread; the
    repair worker is one background domain.  It recomputes a batch's
    dirty sources on one lane fewer than
    {!Cr_util.Domain_pool.default_domains}, so a repair leaves a core
    to the queries: on two cores it spawns no domain and recomputes
    them itself.  If the worker dies, the daemon is {e poisoned}:
    queries keep being served from the last-good epoch and [sync]
    reports the failure instead of hanging. *)

type t

(** What startup recovery found and did (DESIGN.md §10). *)
type recovery = {
  snapshot_epoch : int option;  (** epoch of the checkpoint used, if any *)
  snapshots_skipped : int;  (** newer checkpoints rejected as corrupt *)
  replayed : int;  (** journal records replayed past the checkpoint *)
  truncated_bytes : int;  (** torn/corrupt journal tail cut off *)
  truncated_line : int option;
  recovery_s : float;  (** wall time from [create] to a serving epoch *)
}

val create :
  ?policy:Cr_guard.Policy.t ->
  ?chaos:Cr_guard.Chaos.t ->
  ?staleness_every:int ->
  ?fsync:Journal.fsync ->
  ?journal:string ->
  ?snapshot_dir:string ->
  ?snapshot_every:int ->
  ?recover:bool ->
  ?restart_backoff:Cr_guard.Backoff.t ->
  ?events:string ->
  ?repair_hook:(unit -> unit) ->
  ?cache:int ->
  params:Compact_routing.Params.t ->
  Cr_graph.Graph.t ->
  t
(** Builds epoch 0 (parallel APSP + AGM06 scheme) over the graph — which
    must be normalized, as {!Compact_routing.Agm06.build} requires — and
    spawns the repair domain.  [policy] defaults to
    [Cr_guard.Policy.serving], [chaos] to none.

    [staleness_every] samples every Nth route answer against the live
    graph (0 disables; default 32).  A sample is priced on the live
    graph it was taken on, and no reply waits for it.  When the serving
    epoch holds every accepted mutation, the answer's own stretch is the
    sample.  Otherwise the walk is checked on the live graph at once,
    and a walk that still delivers waits, with that graph, in a queue of
    at most 4096 samples.  The repair worker prices it from the ground
    truth of the epoch that holds that graph when it publishes that
    epoch.  A graph that repair folds into a larger batch never becomes
    an epoch; the worker prices its samples with a shortest-path run on
    that graph before it publishes.  So after {!sync} every sample is
    priced, in the order taken, exactly as a shortest-path run on its
    graph would price it.

    Durability: [journal] logs every accepted mutation as a checksummed
    {!Journal} record, made durable per [fsync] (default
    {!Journal.fsync.Every}) {e before} the [ok] reply — an acknowledged
    mutation survives a crash.  [snapshot_dir] additionally writes an
    atomic {!Snapshot} checkpoint every [snapshot_every] (default 64)
    journaled mutations (requires [journal]).  [~recover:true] starts
    from the newest valid checkpoint in [snapshot_dir] plus the valid
    journal suffix — truncating a torn tail — instead of the given
    graph, reopening the journal in append mode; the given graph is the
    base when nothing was persisted yet.  {!recovery} reports what was
    found.  [restart_backoff] supervises the repair domain: a failed
    batch is requeued and retried under capped exponential backoff
    (default {!Cr_guard.Backoff.repair}); only
    [restart_backoff.max_restarts] consecutive failures poison it.

    [events] streams one strict-JSON repair event per batch through
    {!Cr_util.Jsonl.Writer}.  [repair_hook] is a test seam: the repair
    worker calls it after claiming a batch and before the epoch swap,
    so a test can prove queries are answered mid-repair (and, raising,
    that supervision restarts the worker).

    [cache] (entries; default 0 = off) enables two shared lock-free
    caches ({!Cr_util.Ttcache}) whose generation is the serving epoch
    id: [route] answers keyed by directed pair, [path] answers keyed by
    canonical [(min, max)] pair and reversed on the way out; a [dist]
    reads the epoch's ground truth and is never cached.  An epoch swap
    invalidates both in O(1) — old-generation entries never match — so
    answers after [sync] are byte-identical with the cache on or off.
    @raise Invalid_argument on a negative [staleness_every],
    [snapshot_every] or [cache], a [snapshot_dir] without [journal], a
    [snapshot_dir] that exists but is not a directory, or an
    unnormalized graph. *)

val recovery : t -> recovery option
(** [Some _] iff this daemon was created with [~recover:true]. *)

val handle : t -> string -> string list
(** Processes one protocol line, returning the response lines (each
    starting [ok ] or [err ]; empty for blanks and comments).  Counts
    input lines internally so parse errors carry the session's 1-based
    line number. *)

val dispatch : t -> (Protocol.command option, string) result -> string list * bool
(** Answers one {!Protocol.parse} result: the response lines (none for
    a blank or comment, one [err] line for a parse error, which
    [stats] counts) and whether the command was [quit].  A transport
    that parses a line itself, as the socket server does to spot a
    [sync] it must park, hands the result here instead of parsing the
    line twice.  The [quit] flag does not set {!quitting}, so one
    socket connection quitting never affects another. *)

val handle_line : t -> lineno:int -> string -> string list * bool
(** [dispatch t (Protocol.parse ~lineno line)], for a caller that
    numbers its session's lines itself.  {!handle} is [handle_line]
    over an internal counter plus the {!quitting} flip. *)

val quitting : t -> bool
(** Set once a [quit] command was handled. *)

val serve_loop : t -> in_channel -> out_channel -> unit
(** Reads lines until EOF or [quit], writing and flushing responses —
    the whole transport of [crt daemon].  Call {!close} afterwards. *)

val sync : t -> (int, string) result
(** Blocks until every queued mutation is repaired; [Ok epoch_id], or
    [Error msg] if the repair worker is poisoned. *)

val poll_sync : t -> (int, string) result option
(** Non-blocking {!sync}: [Some] of what [sync] would return right now
    (backlog drained, or poisoned), [None] while repair is still
    running.  The socket server parks a connection that issued [sync]
    and polls this each event-loop tick, so one syncing client never
    stalls the others. *)

val sync_response : (int, string) result -> string
(** The protocol line for a {!sync}/{!poll_sync} result — shared by
    {!dispatch} and the socket server so a deferred sync answers
    byte-identically to a blocking one. *)

val emit_event : t -> (string * string) list -> unit
(** Write one strict-JSON object to the [events] stream (no-op without
    one), serialized against the repair worker's own events.  The
    socket server uses this for connection-lifecycle and drain
    events. *)

val epoch_id : t -> int

val backlog : t -> int
(** Queued mutations plus the batch currently being repaired. *)

val live_graph : t -> Cr_graph.Graph.t
(** The graph with every accepted mutation applied (what repair is
    converging to). *)

val counters : t -> Cr_obs.Counters.t
(** The per-command ([daemon.*]) and guard-rejection ([guard.*])
    tallies that {!stats_json} renders. *)

val stats_json : t -> string
(** One strict-JSON object: epoch, backlog, query/mutation/repair
    totals, parse errors, repair latency percentiles, staleness
    measurements, and durability state (fsync policy, journal size,
    snapshots written and failed, snapshot age, recovery summary).
    The repair and staleness percentiles cover the most recent 4096
    samples of each.

    The staleness fields: [stale_samples] counts the sampled delivered
    answers, and [stale_broken] those whose walk no longer delivers on
    the live graph.  [stale_stretch_p50/p95/p99] are taken over the
    priced samples.  [stale_pending] counts the samples still waiting
    for the epoch that holds their graph, and [stale_skipped] those
    turned away because that queue was full (say, behind a poisoned
    repair worker).  Rendering runs no shortest-path search: a sample
    is priced by the repair worker, not here. *)

val close : t -> unit
(** Stops and joins the repair worker, flushes and closes the journal
    (fsyncing unless the policy is [Off]) and the event writer.  Safe
    to call once the serve loop has returned. *)

val crash : t -> unit
(** Unclean-death seam for tests: stops the worker but {e abandons}
    the journal ({!Journal.abandon} — buffered unflushed bytes are
    lost, as on SIGKILL).  The on-disk state afterwards is what a real
    crash at this point would have left; recover with
    [create ~recover:true]. *)
