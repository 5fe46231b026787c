module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Generators = Cr_graph.Generators
module Rng = Cr_util.Rng
module Stats = Cr_util.Stats

type workload =
  | Erdos_renyi of { n : int; avg_degree : float }
  | Geometric of { n : int; radius : float }
  | Grid of { rows : int; cols : int }
  | Ring_chords of { n : int; chords : int }
  | Isp of { core : int; access_per_core : int }
  | Tree_w of { n : int }
  | Preferential of { n : int; edges_per_node : int }
  | Power_law of { n : int; exponent : float }
  | Exp_line of { n : int; base : float }
  | Chain of { sigma : int; levels : int; spacing : float }

let workload_name = function
  | Erdos_renyi { n; _ } -> Printf.sprintf "erdos-renyi(n=%d)" n
  | Geometric { n; _ } -> Printf.sprintf "geometric(n=%d)" n
  | Grid { rows; cols } -> Printf.sprintf "grid(%dx%d)" rows cols
  | Ring_chords { n; _ } -> Printf.sprintf "ring+chords(n=%d)" n
  | Isp { core; access_per_core } -> Printf.sprintf "isp(%dx%d)" core access_per_core
  | Tree_w { n } -> Printf.sprintf "tree(n=%d)" n
  | Preferential { n; _ } -> Printf.sprintf "pref-attach(n=%d)" n
  | Power_law { n; exponent } -> Printf.sprintf "power-law(n=%d,gamma=%.2f)" n exponent
  | Exp_line { n; base } -> Printf.sprintf "exp-line(n=%d,base=%.2f)" n base
  | Chain { sigma; levels; _ } -> Printf.sprintf "scale-chain(sigma=%d,levels=%d)" sigma levels

let generate rng = function
  | Erdos_renyi { n; avg_degree } -> Generators.erdos_renyi rng ~n ~avg_degree
  | Geometric { n; radius } -> Generators.random_geometric rng ~n ~radius
  | Grid { rows; cols } -> Generators.grid ~rows ~cols
  | Ring_chords { n; chords } -> Generators.ring_with_chords rng ~n ~chords
  | Isp { core; access_per_core } -> Generators.two_tier_isp rng ~core ~access_per_core
  | Tree_w { n } -> Generators.random_tree rng ~n
  | Preferential { n; edges_per_node } -> Generators.preferential_attachment rng ~n ~edges_per_node
  | Power_law { n; exponent } -> Generators.power_law rng ~n ~exponent
  | Exp_line { n; base } -> Generators.exponential_line ~n ~base
  | Chain { sigma; levels; spacing } -> Generators.scale_chain rng ~sigma ~levels ~spacing

let make_graph ~seed w =
  let rng = Rng.create seed in
  let g = generate rng w in
  Graph.normalize (Graph.relabel rng g)

let make_graph_with_aspect ~seed ~target_aspect w =
  let rng = Rng.create seed in
  let g = generate rng w in
  let g = Generators.stretch_weights rng g ~target_aspect in
  Graph.normalize (Graph.relabel rng g)

type row = {
  scheme : string;
  delivered : int;
  pairs : int;
  stretch_mean : float;
  stretch_p99 : float;
  stretch_max : float;
  bits_max : int;
  bits_mean : float;
  header_bits : int;
}

let run_scheme ?pool apsp (scheme : Scheme.t) ~pairs =
  (* every caller-facing table runs on the shared spawn-once domain
     pool by default; results are bit-identical to the sequential path
     (see Simulator.measure_all) *)
  let pool = match pool with Some p -> p | None -> Cr_util.Domain_pool.shared () in
  let agg = Simulator.evaluate ~pool apsp scheme pairs in
  {
    scheme = scheme.Scheme.name;
    delivered = agg.Simulator.delivered;
    pairs = agg.Simulator.pairs;
    stretch_mean = agg.Simulator.stretch_stats.Stats.mean;
    stretch_p99 = agg.Simulator.stretch_stats.Stats.p99;
    stretch_max = agg.Simulator.stretch_stats.Stats.max;
    bits_max = Storage.max_node_bits scheme.Scheme.storage;
    bits_mean = Storage.mean_node_bits scheme.Scheme.storage;
    header_bits = scheme.Scheme.header_bits;
  }

let compare_schemes ?pool apsp schemes ~pairs =
  List.map (fun s -> run_scheme ?pool apsp s ~pairs) schemes

let default_pairs ?allow_short ~seed apsp ~count =
  let rng = Rng.create seed in
  Simulator.sample_pairs ?allow_short rng apsp ~count

let rows_to_csv rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "scheme,delivered,pairs,stretch_mean,stretch_p99,stretch_max,bits_max,bits_mean,header_bits\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%.6f,%.6f,%.6f,%d,%.2f,%d\n" r.scheme r.delivered r.pairs
           r.stretch_mean r.stretch_p99 r.stretch_max r.bits_max r.bits_mean r.header_bits))
    rows;
  Buffer.contents buf

let write_csv rows path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (rows_to_csv rows))

let row_to_json r =
  let module J = Cr_util.Jsonl in
  J.obj
    [
      ("scheme", J.str r.scheme);
      ("delivered", J.int r.delivered);
      ("pairs", J.int r.pairs);
      ("stretch_mean", J.float r.stretch_mean);
      ("stretch_p99", J.float r.stretch_p99);
      ("stretch_max", J.float r.stretch_max);
      ("bits_max", J.int r.bits_max);
      ("bits_mean", J.float r.bits_mean);
      ("header_bits", J.int r.header_bits);
    ]
