(** Shared experiment plumbing for the bench harness, the CLI and the
    examples: named workload construction, scheme rosters, and one-line
    comparison rows. *)

type workload =
  | Erdos_renyi of { n : int; avg_degree : float }
  | Geometric of { n : int; radius : float }
  | Grid of { rows : int; cols : int }
  | Ring_chords of { n : int; chords : int }
  | Isp of { core : int; access_per_core : int }
  | Tree_w of { n : int }
  | Preferential of { n : int; edges_per_node : int }
  | Power_law of { n : int; exponent : float }
      (** configuration-model power-law degrees, [m ≈ n] at
          [exponent ≈ 2.5]; see {!Cr_graph.Generators.power_law} *)
  | Exp_line of { n : int; base : float }
      (** the §1.3 [Δ = Ω(2ⁿ)] example; see {!Cr_graph.Generators.exponential_line} *)
  | Chain of { sigma : int; levels : int; spacing : float }
      (** the adversarial multi-scale instance of T1b *)

val workload_name : workload -> string

val make_graph : seed:int -> workload -> Cr_graph.Graph.t
(** Generates, relabels with adversarial identifiers, and normalizes. *)

val make_graph_with_aspect : seed:int -> target_aspect:float -> workload -> Cr_graph.Graph.t
(** Same, then stretches edge weights to approach the target aspect
    ratio. *)

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

val run_scheme :
  ?pool:Cr_util.Domain_pool.t ->
  Cr_graph.Apsp.t -> Scheme.t -> pairs:(int * int) array -> row
(** Evaluates one scheme over the pairs.  The queries run on [pool] —
    by default the shared spawn-once pool
    ({!Cr_util.Domain_pool.shared}) — and the row is bit-identical to
    a sequential evaluation regardless of the pool width. *)

val compare_schemes :
  ?pool:Cr_util.Domain_pool.t ->
  Cr_graph.Apsp.t -> Scheme.t list -> pairs:(int * int) array -> row list

val default_pairs :
  ?allow_short:bool -> seed:int -> Cr_graph.Apsp.t -> count:int -> (int * int) array
(** Seed-deterministic {!Simulator.sample_pairs}.
    @raise Simulator.Sample_shortfall unless [allow_short] is [true]. *)

val rows_to_csv : row list -> string
(** Header line plus one comma-separated line per row — for plotting the
    tables outside OCaml. *)

val write_csv : row list -> string -> unit
(** [write_csv rows path] writes {!rows_to_csv} to a file. *)

val row_to_json : row -> string
(** One machine-readable JSON object (single line, no trailing newline)
    per row — the [crt eval --json] format, mirroring
    [Cr_resilience.Sweep.cell_to_json]. *)
