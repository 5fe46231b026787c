(** Descriptive statistics over float samples.

    Used by the experiment harness to summarize stretch distributions,
    table sizes and search costs. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}
(** Five-number-style summary of a sample. *)

val ratio : int -> int -> float
(** [ratio num den] is [num /. den], and [0.0] when [den = 0] — the one
    zero-total-safe helper behind every hit-rate / delivery-rate field,
    so the reports cannot drift in how they treat an empty total. *)

val summarize : float array -> summary
(** [summarize xs] computes the summary of a non-empty sample, leaving
    [xs] as it was.  [min], [max] and the percentiles are bit for bit
    what {!percentile} reads from a copy sorted by
    [Array.sort Float.compare].
    @raise Invalid_argument on an empty array. *)

val empty_summary : summary
(** All-zero summary, used for empty cells in report tables. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0,1\]] reads the [q]-quantile by
    linear interpolation.  [sorted] must be sorted ascending and
    non-empty. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0 when fewer than two samples. *)

val histogram : buckets:float array -> float array -> int array
(** [histogram ~buckets xs] counts, for each upper bound [buckets.(i)], the
    samples [x] with [prev < x <= buckets.(i)] (where [prev] is the previous
    bound, or [neg_infinity] for the first).  A final extra bucket counts
    samples above the last bound; the result has
    [Array.length buckets + 1] cells. *)

val cdf_at : float array -> float -> float
(** [cdf_at sorted x] is the fraction of samples [<= x]. *)

val linear_fit : (float * float) array -> float * float
(** Least-squares fit [y = a*x + b]; returns [(a, b)].  Requires at least
    two points with distinct abscissae. *)
