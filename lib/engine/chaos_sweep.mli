(** The chaos grid behind [crt chaos].

    Serves the same deterministic workload under every (chaos preset x
    guard preset) pair — lane crashes, stalls, transient query faults,
    latency spikes, overload budgets — and tallies the guard stack's
    verdicts per cell.  Every run terminates with structured outcomes
    regardless of the injected faults; that is the property the chaos
    suite pins.

    Mirrors [Cr_resilience.Sweep]: cells are pure data, one JSON line
    each via {!cell_to_json}; the ASCII rendering lives in [crt]. *)

type cell = {
  report : Serve.report;  (** the cell's run: labels, guard tally, quality *)
  within_budget : bool;
      (** wall time within the batch budget (25% slack for work already
          in flight at expiry); [true] when the cell has no budget *)
}

val served_ratio : cell -> float option
(** [ok / queries]; [None] for a cell that ran zero queries (rendered
    as JSON null / an ASCII "-" — an empty cell is not perfect
    delivery).  [report.queries = 0] marks the emptiness explicitly. *)

val run_cell :
  ?cache:int ->
  ?dist:Workload.dist ->
  domains:int ->
  seed:int ->
  queries:int ->
  workload:string ->
  guard_label:string ->
  Cr_guard.Policy.t ->
  Cr_guard.Chaos.t ->
  Cr_graph.Apsp.t ->
  Compact_routing.Scheme.t ->
  cell
(** One grid cell: {!Serve.run} under the given policy and chaos. *)

val sweep :
  ?cache:int ->
  ?dist:Workload.dist ->
  ?chaos_seed:int ->
  ?batch_budget_s:float ->
  ?on_cell:(cell -> unit) ->
  domains:int ->
  seed:int ->
  queries:int ->
  workload:string ->
  Cr_graph.Apsp.t ->
  Compact_routing.Scheme.t ->
  cell list
(** The full grid: {!Cr_guard.Chaos.presets} (outer) crossed with
    {!Cr_guard.Policy.presets} (inner).  [chaos_seed] (default 42)
    seeds the fault plans; [batch_budget_s] (default 0.25) is the
    strict preset's batch budget.  [on_cell] fires as each cell
    completes, so callers can stream results to disk and an
    interrupted grid still leaves every finished cell on a complete
    line.  The workload itself depends only on [(dist, seed,
    queries)], so the "none"/"off" cell reproduces the plain serve. *)

val cell_to_json : cell -> string
(** One flat JSON object per cell (single line, no trailing newline):
    the chaos and guard labels, the run's size, throughput, guard
    tally and quality, then [served_ratio] and [within_budget]. *)
