(* crt — compact-routing toolbox.

   Subcommands:
     generate    write a synthetic workload graph to a file
     info        print a graph's basic metrics
     decompose   show the sparse/dense decomposition of a node
     covers      build a sparse cover and report its Lemma 6 numbers
     route       route one message with a chosen scheme, printing the walk
     eval        compare schemes on sampled pairs (one table)
     tables      dump one node's AGM06 routing table
     resilience  fault-injection degradation sweep: delivery ratio,
                 stretch-of-delivered, retries and kill reasons per
                 (scheme, failure rate) cell, plus JSON lines
     serve       closed-loop load generator over the batch query
                 engine: routes/sec, latency percentiles, cache
                 hit rates and guard outcomes per scheme, plus JSON
                 lines; --guards/--chaos select presets
     oracle      serve distance/path oracle queries (the second query
                 surface) through the same guarded engine, refereeing
                 every reported walk against the graph; reports the
                 TZ path oracle and the AGH sparse oracle side by
                 side, as a table plus JSON lines
     chaos       chaos grid: serve the same workload under every
                 (chaos preset x guard preset) pair and tally the
                 guard verdicts per cell, as a table plus JSON lines
     trace       route one message with the trace sink attached and
                 print the hop-by-hop event narration (phase entered,
                 tree-search steps, delivery), as a table or JSON lines
     build       construct a scheme and report per-stage build
                 profiling (seconds and table bits per stage)
*)

module Rng = Cr_util.Rng
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Gio = Cr_graph.Gio
module Cover = Cr_cover.Sparse_cover
module T = Cr_util.Ascii_table
module Engine = Cr_engine.Engine
module Workload = Cr_engine.Workload
open Compact_routing
open Cmdliner

(* ---------- shared arguments ---------- *)

(* Numeric ranges are checked in the converters, so misuse is a usage
   error and exit 2 before anything is built. *)

(* [conv] restricted to values >= [lo] *)
let at_least conv lo =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when v >= lo -> Ok v
    | Ok _ -> Error (`Msg (Format.asprintf "%s is below the minimum %a" s (Arg.conv_printer conv) lo))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let result_conv of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (of_string s)),
      fun fmt v -> Format.pp_print_string fmt (to_string v) )

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (constructions are deterministic given the seed).")

let k_arg =
  Arg.(value & opt (at_least int 1) 3 & info [ "k" ] ~docv:"K" ~doc:"Space-stretch trade-off parameter (k >= 1).")

let workload_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "er"; n ] -> Ok (Experiment.Erdos_renyi { n = int_of_string n; avg_degree = 4.0 })
    | [ "er"; n; d ] ->
        Ok (Experiment.Erdos_renyi { n = int_of_string n; avg_degree = float_of_string d })
    | [ "geo"; n ] -> Ok (Experiment.Geometric { n = int_of_string n; radius = 0.15 })
    | [ "geo"; n; r ] -> Ok (Experiment.Geometric { n = int_of_string n; radius = float_of_string r })
    | [ "grid"; r; c ] -> Ok (Experiment.Grid { rows = int_of_string r; cols = int_of_string c })
    | [ "ring"; n; ch ] -> Ok (Experiment.Ring_chords { n = int_of_string n; chords = int_of_string ch })
    | [ "isp"; core; acc ] ->
        Ok (Experiment.Isp { core = int_of_string core; access_per_core = int_of_string acc })
    | [ "tree"; n ] -> Ok (Experiment.Tree_w { n = int_of_string n })
    | [ "pref"; n; m ] ->
        Ok (Experiment.Preferential { n = int_of_string n; edges_per_node = int_of_string m })
    | [ "pl"; n ] -> Ok (Experiment.Power_law { n = int_of_string n; exponent = 2.5 })
    | [ "pl"; n; gamma ] ->
        Ok (Experiment.Power_law { n = int_of_string n; exponent = float_of_string gamma })
    | [ "expline"; n; base ] ->
        Ok (Experiment.Exp_line { n = int_of_string n; base = float_of_string base })
    | [ "chain"; sigma; levels ] ->
        Ok (Experiment.Chain { sigma = int_of_string sigma; levels = int_of_string levels; spacing = 8.0 })
    | _ -> Error (`Msg (Printf.sprintf "unknown workload %S (try er:256, geo:256:0.15, grid:16:16, ring:256:64, isp:12:20, tree:256, pref:256:2, pl:256:2.5, expline:96:2.0, chain:4:3)" s))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt (Experiment.workload_name w))

let workload_arg =
  Arg.(
    value
    & opt workload_conv (Experiment.Erdos_renyi { n = 256; avg_degree = 4.0 })
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"Synthetic workload: er:N[:DEG], geo:N[:RADIUS], grid:R:C, ring:N:CHORDS, isp:CORE:ACC, tree:N, pref:N:M, pl:N[:GAMMA], expline:N:BASE, chain:SIGMA:LEVELS.")

let graph_file_arg =
  Arg.(value & opt (some string) None & info [ "g"; "graph" ] ~docv:"FILE" ~doc:"Load the graph from FILE instead of generating a workload.")

let aspect_arg =
  Arg.(value & opt (some (at_least float 1.0)) None & info [ "aspect" ] ~docv:"A" ~doc:"Stretch edge weights to approach aspect ratio A (power of two recommended).")

let load_graph ~seed ~graph_file ~workload ~aspect =
  match graph_file with
  | Some path -> (
      try Graph.normalize (Gio.load path) with
      | Gio.Parse_error (line, reason) ->
          Printf.eprintf "crt: %s: line %d: %s\n" path line reason;
          exit 1
      | Sys_error msg ->
          Printf.eprintf "crt: %s\n" msg;
          exit 1)
  | None -> (
      match aspect with
      | None -> Experiment.make_graph ~seed workload
      | Some a -> Experiment.make_graph_with_aspect ~seed ~target_aspect:a workload)

(* the name a table title or JSON row gives the graph *)
let graph_label ~graph_file ~workload =
  match graph_file with Some path -> path | None -> Experiment.workload_name workload

(* A node flag is checked against the loaded graph before anything is
   built over it; out of range is a usage error like any other. *)
let check_node g flag u =
  let n = Graph.n g in
  if u < 0 || u >= n then invalid_arg (Printf.sprintf "%s %d is out of range [0, %d)" flag u n)

(* Long-running subcommands (daemon, serve, chaos) write JSONL
   incrementally; on SIGINT/SIGTERM every open writer is flushed before
   exiting so the artifacts on disk always end at a line boundary —
   the invariant the CI strict-JSON gate checks. *)
let install_signal_handlers () =
  let exit_on signal code =
    try Sys.set_signal signal (Sys.Signal_handle (fun _ ->
        Cr_util.Jsonl.flush_all_writers ();
        exit code))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  exit_on Sys.sigint 130;
  exit_on Sys.sigterm 143

let sample_pairs_exn ~seed apsp ~count =
  try Experiment.default_pairs ~seed apsp ~count
  with Compact_routing.Simulator.Sample_shortfall { requested; found } ->
    Printf.eprintf
      "crt: only %d of %d requested connected pairs exist; is the graph disconnected? (lower --pairs or use a connected workload)\n"
      found requested;
    exit 1

(* [f ()], or a clean exit when the serving workload cannot draw
   [queries] connected pairs *)
let sampling_queries ~queries f =
  try f ()
  with Workload.Sample_exhausted ->
    Printf.eprintf
      "crt: could not sample %d connected pairs; is the graph disconnected or tiny?\n" queries;
    exit 1

(* ---------- generate ---------- *)

let generate_cmd =
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT" ~doc:"Output path.") in
  let run seed workload aspect out =
    let g = load_graph ~seed ~graph_file:None ~workload ~aspect in
    Gio.save g out;
    Printf.printf "wrote %s: n=%d m=%d\n" out (Graph.n g) (Graph.m g)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic workload graph.")
    Term.(const run $ seed_arg $ workload_arg $ aspect_arg $ out)

(* ---------- info ---------- *)

let info_cmd =
  let run seed workload graph_file aspect =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let apsp = Apsp.compute g in
    Printf.printf "nodes       %d\nedges       %d\nmax degree  %d\nconnected   %b\ndiameter    %.4g\naspect Δ    %.4g\nmin weight  %.4g\nmax weight  %.4g\n"
      (Graph.n g) (Graph.m g) (Graph.max_degree g) (Apsp.connected apsp) (Apsp.diameter apsp)
      (Apsp.aspect_ratio apsp) (Graph.min_weight g) (Graph.max_weight g)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print basic metrics of a graph.")
    Term.(const run $ seed_arg $ workload_arg $ graph_file_arg $ aspect_arg)

(* ---------- decompose ---------- *)

let decompose_cmd =
  let node = Arg.(value & opt int 0 & info [ "node" ] ~docv:"U" ~doc:"Node index to decompose.") in
  let run seed k workload graph_file aspect u =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    check_node g "--node" u;
    let apsp = Apsp.compute g in
    let d = Decomposition.build apsp ~k in
    Printf.printf "log2 Δ = %d\n" (Decomposition.log_delta d);
    Printf.printf "node %d: L(u) = {%s}, R(u) = {%s}, dense levels = %d\n" u
      (String.concat "," (List.map string_of_int (Decomposition.range_set d u)))
      (String.concat "," (List.map string_of_int (Decomposition.extended_range_set d u)))
      (Decomposition.dense_level_count d u);
    for i = 0 to k - 1 do
      Printf.printf "  level %d: a=%d |A|=%d %s\n" i
        (Decomposition.range d u i)
        (Decomposition.neighborhood_size d u i)
        (if Decomposition.is_dense d u i then "dense" else "sparse")
    done;
    Printf.printf "  level %d: a=%d |A|=%d (top)\n" k (Decomposition.range d u k)
      (Decomposition.neighborhood_size d u k)
  in
  Cmd.v (Cmd.info "decompose" ~doc:"Show the sparse/dense decomposition of a node.")
    Term.(const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ node)

(* ---------- covers ---------- *)

let covers_cmd =
  let rho = Arg.(value & opt float 2.0 & info [ "rho" ] ~docv:"RHO" ~doc:"Ball radius parameter.") in
  let run seed k workload graph_file aspect rho =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let cover = Cover.build ~k ~rho g in
    let n = Graph.n g in
    let kappa = Cr_util.Bits.ceil_pow (float_of_int n) (1.0 /. float_of_int k) in
    Printf.printf "TC(k=%d, rho=%.2f): %d clusters\n" k rho (Array.length (Cover.clusters cover));
    Printf.printf "  cover property      %b\n" (Cover.check_cover cover);
    Printf.printf "  max overlap         %d (paper bound 2k n^{1/k} = %d)\n" (Cover.max_overlap cover) (2 * k * kappa);
    (* labelled as in bench T5: the construction guarantees only (2k+1)rho *)
    Printf.printf "  max tree radius     %.3f (paper (2k-1)rho = %.3f, ours (2k+1)rho = %.3f)\n"
      (Cover.max_radius cover)
      (float_of_int ((2 * k) - 1) *. rho)
      (float_of_int ((2 * k) + 1) *. rho);
    Printf.printf "  max tree edge       %.3f (bound 2rho = %.3f)\n" (Cover.max_tree_edge cover) (2.0 *. rho)
  in
  Cmd.v (Cmd.info "covers" ~doc:"Build a sparse cover and check its Lemma 6 properties.")
    Term.(const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ rho)

(* ---------- scheme roster ---------- *)

let scheme_names = [ "agm06"; "full"; "tree"; "ap"; "exp"; "tz"; "s3"; "rt" ]

let build_scheme apsp ~k ~seed = function
  | "agm06" -> Agm06.scheme (Agm06.build ~params:(Params.scaled ~k ~seed ()) apsp)
  | "agm06-paper" -> Agm06.scheme (Agm06.build ~params:(Params.paper ~k ~seed ()) apsp)
  | "full" -> Baseline_full.build apsp
  | "tree" -> Baseline_tree.build apsp
  | "ap" -> Baseline_ap.build ~k apsp
  | "exp" -> Baseline_exp.build ~k apsp
  | "tz" -> Baseline_tz.build ~k apsp
  | "s3" -> Baseline_s3.build ~seed apsp
  | "rt" -> Cr_oracle.Rt_scheme.make ~k ~seed apsp
  | s -> invalid_arg (Printf.sprintf "unknown scheme %S" s)

let scheme_arg =
  Arg.(value & opt string "agm06" & info [ "scheme" ] ~docv:"S" ~doc:"Scheme: agm06, agm06-paper, full, tree, ap, exp, tz, s3, rt.")

(* ---------- route ---------- *)

let route_cmd =
  let src = Arg.(value & opt int 0 & info [ "src" ] ~docv:"S" ~doc:"Source node index.") in
  let dst = Arg.(value & opt int 1 & info [ "dst" ] ~docv:"D" ~doc:"Destination node index.") in
  let run seed k workload graph_file aspect scheme src dst =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    check_node g "--src" src;
    check_node g "--dst" dst;
    let apsp = Apsp.compute g in
    let sch = build_scheme apsp ~k ~seed scheme in
    let m = Simulator.measure apsp sch src dst in
    let r = sch.Scheme.route src dst in
    Printf.printf "%s: %d -> %d (identifier %d)\n" sch.Scheme.name src dst (Graph.name_of g dst);
    Printf.printf "delivered %b, cost %.4g, hops %d, shortest %.4g, stretch %.3f\n" m.Simulator.delivered
      m.Simulator.cost m.Simulator.hops (Apsp.distance apsp src dst) m.Simulator.stretch;
    if m.Simulator.hops <= 64 then
      Printf.printf "walk: %s\n" (String.concat " -> " (List.map string_of_int r.Scheme.walk))
  in
  Cmd.v (Cmd.info "route" ~doc:"Route one message and print the walk.")
    Term.(const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ scheme_arg $ src $ dst)

(* ---------- tables ---------- *)

let tables_cmd =
  let node = Arg.(value & opt int 0 & info [ "node" ] ~docv:"U" ~doc:"Node whose table to dump.") in
  let run seed k workload graph_file aspect u =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    check_node g "--node" u;
    let apsp = Apsp.compute_parallel g in
    let agm = Agm06.build ~params:(Params.scaled ~k ~seed ()) apsp in
    print_string (Agm06.describe_node agm u)
  in
  Cmd.v (Cmd.info "tables" ~doc:"Dump one node's AGM06 routing table.")
    Term.(const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ node)

(* ---------- eval ---------- *)

let eval_cmd =
  let pairs_n = Arg.(value & opt (at_least int 0) 1000 & info [ "pairs" ] ~docv:"P" ~doc:"Number of sampled source-destination pairs.") in
  let schemes_arg =
    Arg.(value & opt (list string) scheme_names & info [ "schemes" ] ~docv:"LIST" ~doc:"Comma-separated schemes to compare.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the rows as CSV to FILE.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Also write one JSON line per row to FILE (same field set as the CSV; the format crt resilience and crt serve emit).")
  in
  let run seed k workload graph_file aspect schemes pairs_n csv json =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let apsp = Apsp.compute_parallel g in
    let pairs = sample_pairs_exn ~seed:(seed + 1) apsp ~count:pairs_n in
    let table =
      T.create
        ~title:(Printf.sprintf "%s, %d pairs, k=%d" (graph_label ~graph_file ~workload) pairs_n k)
        [
          ("scheme", T.Left); ("delivered", T.Right); ("stretch mean", T.Right);
          ("p99", T.Right); ("max", T.Right); ("bits mean", T.Right); ("bits max", T.Right);
          ("header", T.Right);
        ]
    in
    (* rt routes over the path oracle whose size --json reports: one
       build serves both *)
    let path_oracle = lazy (Cr_oracle.Path_oracle.build ~k ~seed apsp) in
    let rows =
      List.map
        (fun name ->
          let sch =
            match name with
            | "rt" -> Cr_oracle.Rt_scheme.of_oracle g (Lazy.force path_oracle)
            | _ -> build_scheme apsp ~k ~seed name
          in
          Experiment.run_scheme apsp sch ~pairs)
        schemes
    in
    List.iter
      (fun (r : Experiment.row) ->
        T.add_row table
          [
            r.Experiment.scheme;
            Printf.sprintf "%d/%d" r.Experiment.delivered r.Experiment.pairs;
            T.fmt_float r.Experiment.stretch_mean;
            T.fmt_float r.Experiment.stretch_p99;
            T.fmt_float r.Experiment.stretch_max;
            T.fmt_bits (int_of_float r.Experiment.bits_mean);
            T.fmt_bits r.Experiment.bits_max;
            string_of_int r.Experiment.header_bits;
          ])
      rows;
    T.print table;
    (match csv with
    | Some path ->
        Experiment.write_csv rows path;
        Printf.printf "csv written to %s\n" path
    | None -> ());
    match json with
    | Some path ->
        (* oracle storage rows ride along in the same JSONL file: one
           object per line, distinguished by "surface":"oracle" so the
           scheme-row consumers can filter them out *)
        let po = Lazy.force path_oracle in
        let so = Cr_oracle.Sparse_oracle.build ~seed apsp in
        let module J = Cr_util.Jsonl in
        let oracle_lines =
          [
            J.obj
              [
                ("surface", J.str "oracle"); ("oracle", J.str "tz-path"); ("k", J.int k);
                ("size_entries", J.int (Cr_oracle.Path_oracle.size_entries po));
                ("storage_bits", J.int (Cr_oracle.Path_oracle.storage_bits po));
              ];
            J.obj
              [
                ("surface", J.str "oracle"); ("oracle", J.str "agh-sparse");
                ("landmarks", J.int (Cr_oracle.Sparse_oracle.landmark_count so));
                ("size_entries", J.int (Cr_oracle.Sparse_oracle.size_entries so));
                ("storage_bits", J.int (Cr_oracle.Sparse_oracle.storage_bits so));
              ];
          ]
        in
        J.write_lines (List.map Experiment.row_to_json rows @ oracle_lines) path;
        Printf.printf "json written to %s (+%d oracle storage rows)\n" path (List.length oracle_lines)
    | None -> ()
  in
  Cmd.v (Cmd.info "eval" ~doc:"Compare schemes on sampled pairs.")
    Term.(const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ schemes_arg $ pairs_n $ csv_arg $ json_arg)

(* ---------- resilience ---------- *)

let resilience_cmd =
  let module Sweep = Cr_resilience.Sweep in
  let module Fsim = Cr_resilience.Fsim in
  let pairs_n = Arg.(value & opt (at_least int 0) 400 & info [ "pairs" ] ~docv:"P" ~doc:"Number of sampled source-destination pairs.") in
  let schemes_arg =
    Arg.(value & opt (list string) [ "agm06"; "tz"; "tree"; "full" ]
         & info [ "schemes" ] ~docv:"LIST" ~doc:"Comma-separated schemes to sweep.")
  in
  let rate_conv =
    Arg.conv
      ( (fun s ->
          match float_of_string_opt s with
          | Some r when r >= 0.0 && r <= 1.0 -> Ok r
          | Some r -> Error (`Msg (Printf.sprintf "rate %g outside [0, 1]" r))
          | None -> Error (`Msg (Printf.sprintf "invalid rate %S, expected a float in [0, 1]" s))),
        fun fmt r -> Format.fprintf fmt "%g" r )
  in
  let rates_arg =
    Arg.(value & opt (list rate_conv) Sweep.default_rates
         & info [ "rates" ] ~docv:"LIST" ~doc:"Comma-separated failure rates in [0,1].")
  in
  let model_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun m -> `Msg m) (Sweep.model_of_string s)),
        fun fmt m -> Format.pp_print_string fmt (Sweep.model_to_string m) )
  in
  let model_arg =
    Arg.(value & opt model_conv Sweep.Edges
         & info [ "model" ] ~docv:"M" ~doc:"Fault model: edges (independent edge failure), nodes (fail-stop crashes), targeted (most-traversed edges).")
  in
  let ttl_arg =
    Arg.(value & opt (some (at_least int 1)) None & info [ "ttl" ] ~docv:"T" ~doc:"Hop budget per message (default max 256 (16n)).")
  in
  let retries_arg =
    Arg.(value & opt (at_least int 0) 0 & info [ "retries" ] ~docv:"R" ~doc:"Bounded reroute attempts after a stall (default 0).")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the per-cell JSON lines to FILE instead of stdout.")
  in
  let run seed k workload graph_file aspect schemes pairs_n rates model ttl retries json =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let apsp = Apsp.compute_parallel g in
    let pairs = sample_pairs_exn ~seed:(seed + 1) apsp ~count:pairs_n in
    let policy = Fsim.default_policy ?ttl ~max_retries:retries g in
    let schemes = List.map (fun name -> build_scheme apsp ~k ~seed name) schemes in
    let cells = Sweep.sweep ~policy ~model ~seed:(seed + 2) ~rates apsp schemes pairs in
    let table =
      T.create
        ~title:
          (Printf.sprintf "%s, %d pairs, k=%d, model=%s, ttl=%d, retries<=%d"
             (graph_label ~graph_file ~workload) (Array.length pairs) k
             (Sweep.model_to_string model) policy.Fsim.ttl policy.Fsim.max_retries)
        [
          ("scheme", T.Left); ("rate", T.Right); ("delivered", T.Right); ("ratio", T.Right);
          ("stretch mean", T.Right); ("p99", T.Right); ("retries", T.Right);
          ("drops", T.Right); ("ttl", T.Right); ("loops", T.Right);
        ]
    in
    let last_scheme = ref "" in
    List.iter
      (fun (c : Sweep.cell) ->
        if !last_scheme <> "" && !last_scheme <> c.Sweep.scheme then T.add_sep table;
        last_scheme := c.Sweep.scheme;
        T.add_row table
          [
            c.Sweep.scheme; Printf.sprintf "%.3g" c.Sweep.rate;
            Printf.sprintf "%d/%d" c.Sweep.delivered c.Sweep.pairs;
            Printf.sprintf "%.3f" (Sweep.delivery_ratio c);
            T.fmt_float c.Sweep.stretch.Cr_util.Stats.mean;
            T.fmt_float c.Sweep.stretch.Cr_util.Stats.p99;
            string_of_int c.Sweep.retries_total; string_of_int c.Sweep.dropped;
            string_of_int c.Sweep.ttl_kills; string_of_int c.Sweep.loops;
          ])
      cells;
    T.print table;
    let lines = List.map Sweep.cell_to_json cells in
    match json with
    | Some path ->
        Cr_util.Jsonl.write_lines lines path;
        Printf.printf "json written to %s\n" path
    | None -> List.iter print_endline lines
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:"Fault-injection sweep: graceful degradation per scheme and failure rate.")
    Term.(
      const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ schemes_arg
      $ pairs_n $ rates_arg $ model_arg $ ttl_arg $ retries_arg $ json_arg)

(* ---------- shared serving flags ---------- *)

(* The serving flags of serve, oracle, chaos and daemon, defined and
   validated once.  A command names the flags it has: the default
   preset of --guards (which brings --chaos along) and the help text of
   --domains, --cache and --cache-mode; --dist is on or off.  A flag a
   command lacks is not defined and keeps its default.  Out-of-range
   numbers fail in their converters and unknown presets in [make]:
   either way a usage error and exit 2, on every command alike. *)
type serving = {
  guards : string;  (* guard preset name, as given *)
  policy : Cr_guard.Policy.t;
  chaos : Cr_guard.Chaos.t;
  budget : float;
  chaos_seed : int;
  domains : int;
  cache : int;
  cache_mode : Engine.cache_mode;
  dist : Workload.dist;
}

let serving_term ?guards ?domains ?cache_mode ?(dist = false) ~cache () =
  let defined doc default arg = match doc with Some doc -> arg doc | None -> Term.const default in
  let guards_arg, chaos_arg =
    match guards with
    | None -> (Term.const "off", Term.const "none")
    | Some default ->
        ( Arg.(value & opt string default
               & info [ "guards" ] ~docv:"G" ~doc:"Guard preset: off, serving or strict."),
          Arg.(value & opt string "none"
               & info [ "chaos" ] ~docv:"C" ~doc:"Chaos preset: none, crash, stall, flaky or storm.") )
  in
  let budget_arg =
    Arg.(value & opt (at_least float 0.0) 0.25
         & info [ "budget" ] ~docv:"S" ~doc:"Batch deadline budget in seconds for the strict guard preset.")
  in
  let chaos_seed_arg =
    Arg.(value & opt int 42
         & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"Seed of the deterministic fault plans.")
  in
  let default_domains = Cr_util.Domain_pool.default_domains () in
  let domains_arg =
    defined domains default_domains (fun doc ->
        Arg.(value & opt (at_least int 1) default_domains & info [ "domains" ] ~docv:"N" ~doc))
  in
  let cache_arg = Arg.(value & opt (at_least int 0) 0 & info [ "cache" ] ~docv:"C" ~doc:cache) in
  let cache_mode_arg =
    defined cache_mode Engine.Lane (fun doc ->
        Arg.(value
             & opt (result_conv Engine.cache_mode_of_string Engine.cache_mode_to_string) Engine.Lane
             & info [ "cache-mode" ] ~docv:"M" ~doc))
  in
  let zipf = Workload.Zipf 1.1 in
  let dist_arg =
    if not dist then Term.const zipf
    else
      Arg.(value & opt (result_conv Workload.dist_of_string Workload.dist_to_string) zipf
           & info [ "dist" ] ~docv:"D" ~doc:"Query distribution: uniform, zipf (exponent 1.1) or zipf:S.")
  in
  let make guards chaos budget chaos_seed domains cache cache_mode dist =
    if cache_mode = Engine.Shared && cache = 0 then Error "--cache-mode shared needs --cache > 0"
    else
      match
        ( Cr_guard.Policy.preset_of_string ~batch_budget_s:budget guards,
          Cr_guard.Chaos.preset_of_string ~seed:chaos_seed chaos )
      with
      | Ok policy, Ok chaos ->
          Ok { guards; policy; chaos; budget; chaos_seed; domains; cache; cache_mode; dist }
      | Error msg, _ | _, Error msg -> Error msg
  in
  Term.term_result'
    Term.(
      const make $ guards_arg $ chaos_arg $ budget_arg $ chaos_seed_arg $ domains_arg $ cache_arg
      $ cache_mode_arg $ dist_arg)

(* ---------- serve ---------- *)

let serve_cmd =
  let module Serve = Cr_engine.Serve in
  let schemes_arg =
    Arg.(value & opt (list string) [ "agm06" ]
         & info [ "schemes" ] ~docv:"LIST" ~doc:"Comma-separated schemes to serve.")
  in
  let queries_arg =
    Arg.(value & opt (at_least int 0) 20000 & info [ "queries" ] ~docv:"Q" ~doc:"Queries per scheme in the closed-loop run.")
  in
  let serving =
    serving_term ~guards:"off" ~domains:"Worker-domain pool width (default min(8, recommended))."
      ~cache:"Route-plan cache capacity in entries, per lane (lane mode) or total (shared mode); 0 disables."
      ~cache_mode:"Cache structure: lane (one table per domain), shared (one lock-free table for all domains) or off. Results are bit-identical across modes."
      ~dist:true ()
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the per-run JSON lines to FILE instead of stdout.")
  in
  let run seed k workload graph_file aspect schemes queries
      { guards; policy; chaos; domains; cache; cache_mode; dist; _ } json =
    install_signal_handlers ();
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let apsp = Apsp.compute_parallel g in
    let wl_label = graph_label ~graph_file ~workload in
    let schemes = List.map (fun name -> build_scheme apsp ~k ~seed name) schemes in
    (* stream each report to disk as it is produced: an interrupted run
       keeps every finished scheme's line intact *)
    let writer = Option.map Cr_util.Jsonl.Writer.create json in
    let reports =
      sampling_queries ~queries (fun () ->
          List.map
            (fun scheme ->
              let r =
                Serve.run ~cache ~cache_mode ~dist ~policy ~chaos ~guard_label:guards ~domains
                  ~seed:(seed + 1) ~queries ~workload:wl_label apsp scheme
              in
              Option.iter (fun w -> Cr_util.Jsonl.Writer.write w (Serve.report_to_json r)) writer;
              r)
            schemes)
    in
    let table =
      T.create
        ~title:
          (Printf.sprintf
             "%s, %d queries (%s), k=%d, domains=%d, cache=%d (%s), guards=%s, chaos=%s"
             wl_label queries (Workload.dist_to_string dist) k domains cache
             (Engine.cache_mode_to_string cache_mode) guards (Cr_guard.Chaos.label chaos))
        [
          ("scheme", T.Left); ("routes/s", T.Right); ("p50 us", T.Right); ("p95 us", T.Right);
          ("p99 us", T.Right); ("hit rate", T.Right); ("ok", T.Right); ("rejected", T.Right);
          ("delivered", T.Right); ("stretch mean", T.Right); ("p99", T.Right);
        ]
    in
    List.iter
      (fun (r : Serve.report) ->
        T.add_row table
          [
            r.Serve.scheme;
            Printf.sprintf "%.0f" r.Serve.routes_per_sec;
            Printf.sprintf "%.1f" (1e6 *. r.Serve.latency.Cr_util.Stats.p50);
            Printf.sprintf "%.1f" (1e6 *. r.Serve.latency.Cr_util.Stats.p95);
            Printf.sprintf "%.1f" (1e6 *. r.Serve.latency.Cr_util.Stats.p99);
            (if r.Serve.cache_capacity = 0 then "-"
             else Printf.sprintf "%.3f" (Serve.hit_rate r));
            Printf.sprintf "%d/%d" r.Serve.guards.Engine.ok r.Serve.queries;
            string_of_int (Serve.rejected r);
            Printf.sprintf "%d/%d" r.Serve.delivered r.Serve.guards.Engine.ok;
            T.fmt_float r.Serve.stretch_mean; T.fmt_float r.Serve.stretch_p99;
          ])
      reports;
    T.print table;
    match writer with
    | Some w ->
        Cr_util.Jsonl.Writer.close w;
        Printf.printf "json written to %s\n" (Cr_util.Jsonl.Writer.path w)
    | None -> List.iter (fun r -> print_endline (Serve.report_to_json r)) reports
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Closed-loop load generator: serve a query workload through the guarded batch engine.")
    Term.(
      const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ schemes_arg
      $ queries_arg $ serving $ json_arg)

(* ---------- oracle ---------- *)

let oracle_cmd =
  let module Oserve = Cr_oracle.Oserve in
  let module Po = Cr_oracle.Path_oracle in
  let module So = Cr_oracle.Sparse_oracle in
  let queries_arg =
    Arg.(value & opt (at_least int 0) 20000 & info [ "queries" ] ~docv:"Q" ~doc:"Oracle queries in the closed-loop run.")
  in
  let serving =
    serving_term ~guards:"off" ~domains:"Worker-domain pool width (default min(8, recommended))."
      ~cache:"Answer cache capacity in entries, per lane (lane mode) or total (shared mode); 0 disables."
      ~cache_mode:"Cache structure: lane, shared or off. Shared mode keys oracle answers by canonical (min,max) pair, so both directions hit one entry."
      ~dist:true ()
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the per-oracle JSON lines to FILE instead of stdout.")
  in
  let run seed k workload graph_file aspect queries
      { guards; policy; chaos; domains; cache; cache_mode; dist; _ } json =
    install_signal_handlers ();
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let apsp = Apsp.compute_parallel g in
    let wl_label = graph_label ~graph_file ~workload in
    let oracle = Po.build ~k ~seed apsp in
    let report =
      sampling_queries ~queries (fun () ->
          Oserve.run ~cache ~cache_mode ~dist ~policy ~chaos ~guard_label:guards ~domains
            ~seed:(seed + 1) ~queries ~workload:wl_label apsp oracle)
    in
    let so = So.build ~seed apsp in
    let spairs = sample_pairs_exn ~seed:(seed + 1) apsp ~count:(min queries 2000) in
    let t0 = !Cr_obs.Clock.now () in
    let sparse = Oserve.referee_sparse apsp so spairs in
    let sp_qps =
      float_of_int (Array.length spairs) /. Float.max 1e-9 (!Cr_obs.Clock.now () -. t0)
    in
    let table =
      T.create
        ~title:
          (Printf.sprintf
             "%s, %d queries (%s), k=%d, domains=%d, cache=%d (%s), guards=%s, chaos=%s"
             wl_label queries (Workload.dist_to_string dist) k domains cache
             (Engine.cache_mode_to_string cache_mode) guards (Cr_guard.Chaos.label chaos))
        [
          ("oracle", T.Left); ("bound", T.Right); ("queries/s", T.Right); ("p95 us", T.Right);
          ("hit rate", T.Right); ("ok", T.Right); ("stretch mean", T.Right); ("max", T.Right);
          ("entries", T.Right); ("bits", T.Right);
        ]
    in
    T.add_row table
      [
        Printf.sprintf "tz-path(k=%d)" k;
        Printf.sprintf "%.0f" (Po.stretch_bound oracle);
        Printf.sprintf "%.0f" report.Oserve.queries_per_sec;
        Printf.sprintf "%.1f" (1e6 *. report.Oserve.latency.Cr_util.Stats.p95);
        (if report.Oserve.cache_capacity = 0 then "-"
         else Printf.sprintf "%.3f" (Oserve.hit_rate report));
        Printf.sprintf "%d/%d" report.Oserve.ok report.Oserve.queries;
        T.fmt_float report.Oserve.stretch_mean;
        T.fmt_float report.Oserve.stretch_max;
        string_of_int report.Oserve.size_entries;
        T.fmt_bits report.Oserve.storage_bits;
      ];
    T.add_row table
      [
        Printf.sprintf "agh-sparse(L=%d)" (So.landmark_count so);
        Printf.sprintf "%.0f" (So.stretch_bound so);
        Printf.sprintf "%.0f" sp_qps;
        "-";
        "-";
        Printf.sprintf "%d/%d" sparse.Cr_util.Stats.count (Array.length spairs);
        T.fmt_float sparse.Cr_util.Stats.mean;
        T.fmt_float sparse.Cr_util.Stats.max;
        string_of_int (So.size_entries so);
        T.fmt_bits (So.storage_bits so);
      ];
    T.print table;
    let module J = Cr_util.Jsonl in
    let sparse_line =
      J.obj
        [
          ("surface", J.str "oracle"); ("oracle", J.str "agh-sparse"); ("workload", J.str wl_label);
          ("landmarks", J.int (So.landmark_count so)); ("pairs", J.int (Array.length spairs));
          ("ok", J.int sparse.Cr_util.Stats.count);
          ("stretch_mean", J.float sparse.Cr_util.Stats.mean);
          ("stretch_max", J.float sparse.Cr_util.Stats.max);
          ("size_entries", J.int (So.size_entries so)); ("storage_bits", J.int (So.storage_bits so));
        ]
    in
    let lines = [ Oserve.report_to_json report; sparse_line ] in
    match json with
    | Some path ->
        J.write_lines lines path;
        Printf.printf "json written to %s\n" path
    | None -> List.iter print_endline lines
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:"Serve distance/path oracle queries through the guarded batch engine and referee the reported walks.")
    Term.(
      const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ queries_arg
      $ serving $ json_arg)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let module Sweep = Cr_engine.Chaos_sweep in
  let module Serve = Cr_engine.Serve in
  let queries_arg =
    Arg.(value & opt (at_least int 0) 4000 & info [ "queries" ] ~docv:"Q" ~doc:"Queries per grid cell.")
  in
  let serving =
    serving_term ~domains:"Worker-domain pool width per cell."
      ~cache:"Per-lane route-plan cache capacity in entries (0 disables)." ()
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the per-cell JSON lines to FILE instead of stdout.")
  in
  let run seed k workload graph_file aspect scheme queries { domains; cache; budget; chaos_seed; _ }
      json =
    install_signal_handlers ();
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let apsp = Apsp.compute_parallel g in
    let wl_label = graph_label ~graph_file ~workload in
    let sch = build_scheme apsp ~k ~seed scheme in
    let writer = Option.map Cr_util.Jsonl.Writer.create json in
    let on_cell c =
      Option.iter (fun w -> Cr_util.Jsonl.Writer.write w (Sweep.cell_to_json c)) writer
    in
    let cells =
      sampling_queries ~queries (fun () ->
          Sweep.sweep ~cache ~chaos_seed ~batch_budget_s:budget ~on_cell ~domains
            ~seed:(seed + 1) ~queries ~workload:wl_label apsp sch)
    in
    let table =
      T.create
        ~title:
          (Printf.sprintf "%s, %s, %d queries/cell, domains=%d, budget=%.3gs, chaos-seed=%d"
             wl_label sch.Scheme.name queries domains budget chaos_seed)
        [
          ("chaos", T.Left); ("guards", T.Left); ("ok", T.Right); ("t/o", T.Right);
          ("shed", T.Right); ("brk", T.Right); ("lost", T.Right); ("retries", T.Right);
          ("requeues", T.Right); ("served", T.Right); ("budget", T.Right); ("wall ms", T.Right);
        ]
    in
    let last_chaos = ref "" in
    List.iter
      (fun (c : Sweep.cell) ->
        let r = c.Sweep.report in
        let g = r.Serve.guards in
        if !last_chaos <> "" && !last_chaos <> r.Serve.chaos_label then T.add_sep table;
        last_chaos := r.Serve.chaos_label;
        T.add_row table
          [
            r.Serve.chaos_label; r.Serve.guard_label; string_of_int g.Engine.ok;
            string_of_int g.Engine.timed_out; string_of_int g.Engine.shed;
            string_of_int g.Engine.breaker_open; string_of_int g.Engine.worker_lost;
            string_of_int g.Engine.retries; string_of_int g.Engine.requeues;
            (match Sweep.served_ratio c with
            | Some x -> Printf.sprintf "%.1f%%" (100.0 *. x)
            | None -> "-");
            (if c.Sweep.within_budget then "ok" else "OVER");
            Printf.sprintf "%.1f" (1e3 *. r.Serve.wall_s);
          ])
      cells;
    T.print table;
    match writer with
    | Some w ->
        Cr_util.Jsonl.Writer.close w;
        Printf.printf "json written to %s\n" (Cr_util.Jsonl.Writer.path w)
    | None -> List.iter (fun c -> print_endline (Sweep.cell_to_json c)) cells
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Chaos grid: sweep chaos presets against guard presets and tally the verdicts.")
    Term.(
      const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ scheme_arg
      $ queries_arg $ serving $ json_arg)

(* ---------- daemon ---------- *)

let daemon_cmd =
  let module Daemon = Cr_daemon.Daemon in
  let module Journal = Cr_daemon.Journal in
  let module Crashpoint = Cr_daemon.Crashpoint in
  let module Server = Cr_daemon.Server in
  let serving =
    serving_term ~guards:"serving"
      ~cache:"Capacity in entries of each shared answer cache, one for route and one for path answers (0 disables; dist reads the epoch's distances and is never cached). Generation-aged by epoch id: every repair invalidates in O(1), so answers never cross epochs."
      ()
  in
  let staleness_arg =
    Arg.(value & opt (at_least int 0) 32
         & info [ "staleness-every" ] ~docv:"N"
             ~doc:"Re-price every Nth answered route against the live post-mutation graph (0 disables).")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Append every accepted mutation to FILE (one per line, flushed), replayable with --replay.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Apply a recorded mutation journal to the graph before serving.")
  in
  let events_arg =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"FILE" ~doc:"Stream one strict-JSON repair event per line to FILE.")
  in
  let fsync_arg =
    Arg.(value & opt (result_conv Journal.fsync_of_string Journal.fsync_to_string) Journal.Every
         & info [ "fsync" ] ~docv:"POLICY"
             ~doc:"Journal durability: every (fsync per record), batch[:N] (fsync every N records) or off (flush only). ok replies are sent after the record is durable per this policy.")
  in
  let snapshots_arg =
    Arg.(value & opt (some string) None
         & info [ "snapshots" ] ~docv:"DIR"
             ~doc:"Write an atomic snapshot checkpoint to DIR every --snapshot-every journaled mutations (requires --journal).")
  in
  let snapshot_every_arg =
    Arg.(value & opt (at_least int 0) 64
         & info [ "snapshot-every" ] ~docv:"N" ~doc:"Checkpoint interval in journaled mutations.")
  in
  let recover_arg =
    Arg.(value & opt (some string) None
         & info [ "recover" ] ~docv:"DIR"
             ~doc:"Recover before serving: load the newest valid snapshot from DIR, replay the valid --journal suffix, truncate any torn tail, and continue journaling in place (requires --journal).")
  in
  (* SITE[:N] -> (site, N), N >= 1 and 1 when absent *)
  let crashpoint_conv =
    let parse spec =
      let site, after =
        match String.index_opt spec ':' with
        | None -> (spec, Some 1)
        | Some i ->
            ( String.sub spec 0 i,
              int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) )
      in
      match (Crashpoint.of_string site, after) with
      | Some site, Some n when n >= 1 -> Ok (site, n)
      | None, _ ->
          Error
            (`Msg
              (Printf.sprintf "unknown site %S (try %s)" site
                 (String.concat ", " (List.map Crashpoint.to_string Crashpoint.all))))
      | Some _, _ -> Error (`Msg (Printf.sprintf "bad hit count in %S" spec))
    in
    Arg.conv (parse, fun fmt (site, n) -> Format.fprintf fmt "%s:%d" (Crashpoint.to_string site) n)
  in
  let crashpoint_arg =
    Arg.(value & opt (some crashpoint_conv) None
         & info [ "crashpoint" ] ~docv:"SITE[:N]"
             ~doc:"Fault injection: SIGKILL self at the Nth hit (default 1st) of SITE — pre-flush, post-flush-pre-ack or mid-snapshot. For crash-recovery testing.")
  in
  let listen_arg =
    Arg.(value & opt (some (result_conv Server.addr_of_string Server.addr_to_string)) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Serve many concurrent clients over a socket instead of stdin/stdout: [HOST:]PORT (TCP, host defaults to 127.0.0.1) or unix:PATH. SIGTERM/SIGINT drain gracefully (stop accepting, flush in-flight responses up to --drain seconds) and exit 143/130.")
  in
  let netchaos_arg =
    (* the preset name is checked here; [run] seeds it with --chaos-seed *)
    let preset s = Result.map (fun _ -> s) (Server.netchaos_of_string ~seed:0 s) in
    Arg.(value & opt (result_conv preset Fun.id) "none"
         & info [ "netchaos" ] ~docv:"P"
             ~doc:"Deterministic network fault injection on the socket transport: none, slow (delayed writes), torn (short writes), rude (mid-request disconnects) or net (all three). Decisions are pure in (connection id, request index) under --chaos-seed, so runs replay.")
  in
  let max_conns_arg =
    Arg.(value & opt (at_least int 1) 64
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Connection cap for --listen; clients beyond it are shed with a structured err busy.")
  in
  let max_line_arg =
    Arg.(value & opt (at_least int 16) 4096
         & info [ "max-line" ] ~docv:"BYTES"
             ~doc:"Request-line byte bound for --listen; longer lines get err line too long and the connection is closed.")
  in
  let idle_timeout_arg =
    Arg.(value & opt (at_least float 0.0) 30.0
         & info [ "idle-timeout" ] ~docv:"S"
             ~doc:"Per-connection idle/read deadline in seconds for --listen (0 disables).")
  in
  let drain_arg =
    Arg.(value & opt (at_least float 0.0) 5.0
         & info [ "drain" ] ~docv:"S"
             ~doc:"Drain deadline for --listen: how long SIGTERM waits for in-flight responses before force-closing stragglers.")
  in
  let run seed k workload graph_file aspect { guards; policy; chaos; chaos_seed; cache; _ }
      staleness journal replay events fsync snapshots snapshot_every recover crashpoint listen
      netchaos max_conns max_line idle_timeout drain =
    if listen = None then install_signal_handlers ();
    at_exit Cr_util.Domain_pool.shutdown_shared;
    Option.iter (fun (site, after) -> Crashpoint.arm_kill ~after site) crashpoint;
    if (snapshots <> None || recover <> None) && journal = None then begin
      Printf.eprintf "crt: --snapshots/--recover need --journal (checkpoints record a journal offset)\n";
      exit 2
    end;
    (* --recover DIR reads checkpoints from DIR; new ones go to
       --snapshots DIR, defaulting to the same place *)
    let snapshot_dir = match snapshots with Some d -> Some d | None -> recover in
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let g =
      match replay with
      | None -> g
      | Some path -> (
          (* a torn or corrupt trailing record is the expected outcome
             of a crash, not an operator error: replay the valid
             prefix, say exactly what was dropped, and serve *)
          try
            let r = Journal.load path in
            (match r.Journal.truncation with
            | Some tr ->
                Printf.eprintf
                  "crt: %s: line %d: %s; replaying the %d valid records before it\n" path
                  tr.Journal.lineno tr.Journal.reason r.Journal.read_records
            | None -> ());
            Graph.apply_all g r.Journal.mutations
          with
          | Invalid_argument msg | Sys_error msg ->
              Printf.eprintf "crt: replay %s: %s\n" path msg;
              exit 1)
    in
    let d =
      try
        Daemon.create ~policy ~chaos ~staleness_every:staleness ~fsync ?journal ?snapshot_dir
          ~snapshot_every ~recover:(recover <> None) ?events ~cache
          ~params:(Params.scaled ~k ~seed ()) g
      with Invalid_argument msg ->
        Printf.eprintf "crt: %s\n" msg;
        exit 1
    in
    let g = Daemon.live_graph d in
    Printf.printf "ok ready n=%d m=%d k=%d guards=%s chaos=%s\n" (Graph.n g) (Graph.m g) k
      guards (Cr_guard.Chaos.label chaos);
    (match Daemon.recovery d with
    | Some r ->
        Printf.printf "ok recovered snapshot=%s replayed=%d truncated_bytes=%d recovery_ms=%.1f\n"
          (match r.Daemon.snapshot_epoch with Some e -> string_of_int e | None -> "none")
          r.Daemon.replayed r.Daemon.truncated_bytes (1e3 *. r.Daemon.recovery_s)
    | None -> ());
    flush stdout;
    match listen with
    | None ->
        Daemon.serve_loop d stdin stdout;
        Daemon.close d
    | Some address ->
        let nc = Result.get_ok (Server.netchaos_of_string ~seed:chaos_seed netchaos) in
        let config =
          { Server.default_config with
            Server.max_conns; max_line; idle_timeout_s = idle_timeout; drain_s = drain; nc }
        in
        (* drain instead of exiting: the handler only flips a flag, the
           event loop stops accepting, flushes in-flight responses up
           to --drain seconds, and run returns; journal and JSONL
           writers are then closed on the normal path.  Installed
           *before* create — the listening socket is visible to
           clients (and process managers) from the moment it binds, so
           a SIGTERM in that window must already mean drain, not die. *)
        let signaled = ref 0 in
        let srv_ref = ref None in
        let stop_early = ref false in
        let drain_on signal code =
          try
            Sys.set_signal signal
              (Sys.Signal_handle
                 (fun _ ->
                   signaled := code;
                   match !srv_ref with
                   | Some srv -> Server.stop srv
                   | None -> stop_early := true))
          with Invalid_argument _ | Sys_error _ -> ()
        in
        drain_on Sys.sigterm 143;
        drain_on Sys.sigint 130;
        let srv =
          try Server.create ~config d address with
          | Unix.Unix_error (err, _, arg) ->
              Printf.eprintf "crt: --listen %s: %s%s\n" (Server.addr_to_string address)
                (Unix.error_message err)
                (if arg = "" then "" else " (" ^ arg ^ ")");
              exit 1
        in
        srv_ref := Some srv;
        if !stop_early then Server.stop srv;
        Printf.printf "ok listening %s max-conns=%d idle-timeout=%gs netchaos=%s\n%!"
          (Server.addr_to_string (Server.addr srv))
          max_conns idle_timeout (Server.netchaos_label nc);
        Server.run srv;
        Daemon.close d;
        Printf.printf "ok drained %s\n%!" (Server.stats_json srv);
        Cr_util.Jsonl.flush_all_writers ();
        if !signaled <> 0 then exit !signaled
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Persistent route daemon: stream route/dist queries and live mutations over stdin/stdout or, with --listen, a fault-tolerant multi-client socket; repair is incremental and never blocks serving, the journal is checksummed and crash-recoverable.")
    Term.(
      const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ serving
      $ staleness_arg $ journal_arg $ replay_arg $ events_arg $ fsync_arg $ snapshots_arg
      $ snapshot_every_arg $ recover_arg $ crashpoint_arg $ listen_arg $ netchaos_arg
      $ max_conns_arg $ max_line_arg $ idle_timeout_arg $ drain_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let module Trace = Cr_obs.Trace in
  let src = Arg.(value & opt int 0 & info [ "src" ] ~docv:"S" ~doc:"Source node index.") in
  let dst = Arg.(value & opt int 1 & info [ "dst" ] ~docv:"D" ~doc:"Destination node index.") in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write one strict-JSON event per line to FILE (\"-\" for stdout) instead of the table.")
  in
  let run seed k workload graph_file aspect scheme src dst json =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    check_node g "--src" src;
    check_node g "--dst" dst;
    let apsp = Apsp.compute g in
    let sch = build_scheme apsp ~k ~seed scheme in
    let events = ref [] in
    let r = sch.Scheme.route ~trace:(fun ev -> events := ev :: !events) src dst in
    let events = List.rev !events in
    let cost, hops = Simulator.walk_cost g r.Scheme.walk in
    let shortest = Apsp.distance apsp src dst in
    let stretch = Simulator.stretch ~delivered:r.Scheme.delivered ~cost shortest in
    match json with
    | Some path ->
        let summary =
          Cr_util.Jsonl.obj
            [
              ("event", Cr_util.Jsonl.str "summary");
              ("scheme", Cr_util.Jsonl.str sch.Scheme.name);
              ("src", Cr_util.Jsonl.int src);
              ("dst", Cr_util.Jsonl.int dst);
              ("delivered", Cr_util.Jsonl.bool r.Scheme.delivered);
              ("phases_used", Cr_util.Jsonl.int r.Scheme.phases_used);
              ("cost", Cr_util.Jsonl.float cost);
              ("hops", Cr_util.Jsonl.int hops);
              ("shortest", Cr_util.Jsonl.float shortest);
              ("stretch", Cr_util.Jsonl.float stretch);
            ]
        in
        let lines = List.map Trace.event_to_json events @ [ summary ] in
        if path = "-" then List.iter print_endline lines
        else begin
          Cr_util.Jsonl.write_lines lines path;
          Printf.printf "json written to %s\n" path
        end
    | None ->
        Printf.printf "%s: %d -> %d (identifier %d)\n" sch.Scheme.name src dst
          (Graph.name_of g dst);
        Printf.printf "delivered %b, phases %d, cost %.4g, hops %d, shortest %.4g, stretch %.3f\n"
          r.Scheme.delivered r.Scheme.phases_used cost hops shortest stretch;
        let table =
          T.create
            ~title:(Printf.sprintf "trace of %s, %d -> %d" sch.Scheme.name src dst)
            [ ("#", T.Right); ("phase", T.Right); ("event", T.Left); ("annotation", T.Left) ]
        in
        List.iteri
          (fun i ev ->
            T.add_row table
              [
                string_of_int (i + 1);
                (match Trace.phase_of ev with Some p -> string_of_int p | None -> "-");
                Trace.label ev;
                Trace.event_to_string ev;
              ])
          events;
        T.print table;
        if hops <= 64 then
          Printf.printf "walk: %s\n" (String.concat " -> " (List.map string_of_int r.Scheme.walk))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Route one message with the trace sink attached and print the event narration.")
    Term.(
      const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ scheme_arg $ src
      $ dst $ json_arg)

(* ---------- build ---------- *)

let build_cmd =
  let module Profile = Cr_obs.Profile in
  let profile_arg =
    Arg.(value & flag & info [ "profile" ] ~doc:"Report per-stage build profiling (seconds and bits).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the build summary (and stage profile) as one strict-JSON line to FILE (\"-\" for stdout).")
  in
  let run seed k workload graph_file aspect scheme profile json =
    let g = load_graph ~seed ~graph_file ~workload ~aspect in
    let p = Profile.create () in
    let apsp = Profile.time p "apsp" (fun () -> Apsp.compute_parallel g) in
    (* agm06 charges its own stages; other schemes get one "scheme" stage
       (nesting both would double-count the total) *)
    let sch =
      match scheme with
      | "agm06" -> Agm06.scheme (Agm06.build ~params:(Params.scaled ~k ~seed ()) ~profile:p apsp)
      | "agm06-paper" ->
          Agm06.scheme (Agm06.build ~params:(Params.paper ~k ~seed ()) ~profile:p apsp)
      | name -> Profile.time p "scheme" (fun () -> build_scheme apsp ~k ~seed name)
    in
    let storage = sch.Scheme.storage in
    Printf.printf "%s over %s: n=%d m=%d\n" sch.Scheme.name
      (graph_label ~graph_file ~workload)
      (Graph.n g) (Graph.m g);
    Printf.printf "table bits: max %s, mean %s, total %s; header %d bits\n"
      (T.fmt_bits (Storage.max_node_bits storage))
      (T.fmt_bits (int_of_float (Storage.mean_node_bits storage)))
      (T.fmt_bits (Storage.total_bits storage))
      sch.Scheme.header_bits;
    if profile then print_string (Profile.report ~title:"build stages" p);
    match json with
    | None -> ()
    | Some path ->
        let line =
          Cr_util.Jsonl.obj
            [
              ("scheme", Cr_util.Jsonl.str sch.Scheme.name);
              ("n", Cr_util.Jsonl.int (Graph.n g));
              ("m", Cr_util.Jsonl.int (Graph.m g));
              ("bits_max", Cr_util.Jsonl.int (Storage.max_node_bits storage));
              ("bits_mean", Cr_util.Jsonl.float (Storage.mean_node_bits storage));
              ("bits_total", Cr_util.Jsonl.int (Storage.total_bits storage));
              ("header_bits", Cr_util.Jsonl.int sch.Scheme.header_bits);
              ("profile", Profile.to_json p);
            ]
        in
        if path = "-" then print_endline line
        else begin
          Cr_util.Jsonl.write_lines [ line ] path;
          Printf.printf "json written to %s\n" path
        end
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Construct a scheme and report its table sizes, with optional per-stage profiling.")
    Term.(
      const run $ seed_arg $ k_arg $ workload_arg $ graph_file_arg $ aspect_arg $ scheme_arg
      $ profile_arg $ json_arg)

let () =
  let doc = "compact-routing toolbox: the AGM'06 scale-free name-independent scheme and its comparators" in
  let main = Cmd.group (Cmd.info "crt" ~doc) [ generate_cmd; info_cmd; decompose_cmd; covers_cmd; route_cmd; eval_cmd; tables_cmd; resilience_cmd; serve_cmd; oracle_cmd; chaos_cmd; daemon_cmd; trace_cmd; build_cmd ] in
  (* CLI misuse (unknown subcommand, malformed flag, bad roster name) is
     a one-line usage error on stderr and exit 2 — never a backtrace.
     [~catch:false] so real bugs still crash loudly in CI. *)
  match Cmd.eval_value ~catch:false main with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) -> exit 2 (* cmdliner already printed the usage line *)
  | Error `Exn -> exit 125
  | exception Invalid_argument msg ->
      Printf.eprintf "crt: %s\n" msg;
      exit 2
