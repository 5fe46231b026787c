(* What every workload shares: options, constants, generated inputs,
   the result line and the run's checks. *)

module Graph = Cr_graph.Graph
module Gio = Cr_graph.Gio
module Rng = Cr_util.Rng
module Workload = Cr_engine.Workload
open Compact_routing

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  crt : string;  (** absolute path of the crt binary *)
  commit : string;
  source_digest : string;
}

let now = Spans.now

let log fmt = Printf.printf (fmt ^^ "\n%!")

(* The daemon's defaults ([crt daemon] without [-k]/[--seed]); the
   in-process builds use the same so their tables are the daemon's. *)
let params = Params.scaled ~k:3 ~seed:1 ()

let k = params.Params.k

(* A stats scrape every this many reads, as an operator's monitor
   would send. *)
let stats_every = 10_000

(* churn-repair's [--snapshot-every]; its replay snapshots as often. *)
let snapshot_every = 8

(* ---- generated inputs ------------------------------------------------ *)

(* The graphs and the mutation lists are fixed: generator seed 1 for
   every run.  [--seed] varies what is asked of them (request streams
   and batch pairs), so a run's cost does not also swing with a
   different topology or repair. *)
let graph_seed = 1

let power_law ~n =
  Experiment.make_graph ~seed:graph_seed (Experiment.Power_law { n; exponent = 2.5 })

(* Integer weights 1..7, drawn in edge order.  [normalize] leaves them
   as they are whenever some edge drew 1, which the CLI's own
   normalization on load then also leaves alone. *)
let integer_weights g =
  let rng = Rng.create graph_seed in
  Graph.normalize (Graph.reweight g (fun _ _ _ -> float_of_int (1 + Rng.int rng 7)))

(* Written to a file and read back exactly as [crt daemon -g] reads it. *)
let graph_file path g =
  Gio.save g path;
  Graph.normalize (Gio.load path)

(* The read mix: 50% route, 40% dist, 10% path, both endpoints drawn
   from [dist], Zipf(1.1) unless given.  [Workload.generate] without a
   pool runs on the calling domain. *)
let read_lines ?(dist = Workload.Zipf 1.1) ~seed ~n ~count () =
  let pairs = Workload.generate dist ~seed ~n ~count in
  let rng = Rng.create (seed lxor 0x3ead) in
  Array.map
    (fun (u, v) ->
      let x = Rng.int rng 10 in
      let verb = if x < 5 then "route" else if x < 9 then "dist" else "path" in
      Printf.sprintf "%s %d %d" verb u v)
    pairs

(* ---- results ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_metrics ms =
  List.iter (fun m -> log "metric %-32s %s %s" m.name (num m.value) m.unit_) ms

let json_str s = Cr_util.Jsonl.str s

let result_line ~correct ~attempted ~failed ms =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str m.name) (num m.value)
             (json_str m.unit_))
         ms)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

let provenance o ~argv ~n ~m ~samples =
  Cr_util.Jsonl.obj
    [
      ("workload", json_str o.workload);
      ("seed", string_of_int o.seed);
      ("seconds", string_of_int o.seconds);
      ("trace", string_of_bool o.trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("commit", json_str o.commit);
      ("source_digest", json_str o.source_digest);
      ("argv", "[" ^ String.concat "," (List.map json_str argv) ^ "]");
      ("graph_n", string_of_int n);
      ("graph_m", string_of_int m);
      ("samples", Cr_util.Jsonl.obj (List.map (fun (k, c) -> (k, string_of_int c)) samples));
    ]

(* Checks collected over a run; any failure makes the result
   incorrect. *)
let failures = ref []

let check ok what = if not ok then failures := what :: !failures

let check_eq what expected got =
  check (expected = got) (Printf.sprintf "%s: expected %d, got %d" what expected got)
