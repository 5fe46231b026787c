(* The chaos grid: serve the same deterministic workload under every
   (chaos preset x guard preset) pair and tally what the guard stack
   did about each injected failure mode.  Mirrors Cr_resilience.Sweep:
   cells are pure data, rendered as JSONL by cell_to_json and as an
   ASCII table by the CLI. *)

module Jsonl = Cr_util.Jsonl
module Guard = Cr_guard

type cell = {
  report : Serve.report;
  within_budget : bool; (* wall_s <= batch budget (with 25% slack), or no budget *)
}

(* A cell that ran zero queries has no delivery rate — reporting 1.0
   would render an empty cell as perfect delivery.  [None] becomes a
   JSON null / an ASCII "-"; the cell's [queries = 0] field is the
   explicit emptiness marker. *)
let served_ratio c =
  let r = c.report in
  if r.Serve.queries = 0 then None
  else Some (Cr_util.Stats.ratio r.Serve.guards.Engine.ok r.Serve.queries)

let run_cell ?(cache = 0) ?(dist = Workload.Zipf 1.1) ~domains ~seed ~queries ~workload
    ~guard_label policy chaos apsp scheme =
  let report =
    Serve.run ~cache ~dist ~policy ~chaos ~guard_label ~domains ~seed ~queries ~workload apsp
      scheme
  in
  let within_budget =
    match policy.Guard.Policy.batch_budget_s with
    | None -> true
    | Some b ->
        (* generous slack: the budget cuts off work, it cannot cancel a
           query already in flight or an injected stall mid-sleep *)
        report.Serve.wall_s <= b *. 1.25
  in
  { report; within_budget }

let sweep ?cache ?dist ?(chaos_seed = 42) ?(batch_budget_s = 0.25) ?(on_cell = fun _ -> ())
    ~domains ~seed ~queries ~workload apsp scheme =
  let chaoses = Guard.Chaos.presets ~seed:chaos_seed in
  let policies = Guard.Policy.presets ~batch_budget_s in
  List.concat_map
    (fun (_, chaos) ->
      List.map
        (fun (glabel, policy) ->
          let cell =
            run_cell ?cache ?dist ~domains ~seed ~queries ~workload ~guard_label:glabel policy
              chaos apsp scheme
          in
          on_cell cell;
          cell)
        policies)
    chaoses

let cell_to_json c =
  let r = c.report in
  let g = r.Serve.guards in
  Jsonl.obj
    [
      ("chaos", Jsonl.str r.Serve.chaos_label);
      ("guards", Jsonl.str r.Serve.guard_label);
      ("queries", Jsonl.int r.Serve.queries);
      ("domains", Jsonl.int r.Serve.domains);
      ("wall_s", Jsonl.float r.Serve.wall_s);
      ("routes_per_sec", Jsonl.float r.Serve.routes_per_sec);
      ("ok", Jsonl.int g.Engine.ok);
      ("timed_out", Jsonl.int g.Engine.timed_out);
      ("shed", Jsonl.int g.Engine.shed);
      ("breaker_open", Jsonl.int g.Engine.breaker_open);
      ("worker_lost", Jsonl.int g.Engine.worker_lost);
      ("retries", Jsonl.int g.Engine.retries);
      ("requeues", Jsonl.int g.Engine.requeues);
      ("lost_lanes", Jsonl.int g.Engine.lost_lanes);
      ("stalls", Jsonl.int g.Engine.stalls);
      ("delivered", Jsonl.int r.Serve.delivered);
      ("served_ratio", match served_ratio c with Some x -> Jsonl.float x | None -> "null");
      ("stretch_p99", Jsonl.float r.Serve.stretch_p99);
      ("within_budget", Jsonl.bool c.within_budget);
    ]
