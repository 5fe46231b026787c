(** Minimal JSON-lines emission for machine-readable CLI/bench output.

    Every subcommand that prints result rows ([crt eval], [crt
    resilience], [crt serve]) emits one JSON object per row through
    these helpers, so downstream plotting needs no OCaml JSON
    dependency and all subcommands agree on number formatting. *)

val str : string -> string
(** A quoted, escaped JSON string. *)

val float : float -> string
(** Integral floats as ["1.0"], others as [%.6g].  Non-finite values
    ([infinity], [neg_infinity], [nan]) render as ["null"]: JSON has no
    non-finite numbers, and a failed route's infinite stretch must not
    corrupt the line.  Consumers read null as "undefined/unreachable"
    (the convention is recorded in DESIGN.md §7). *)

val int : int -> string

val bool : bool -> string

val obj : (string * string) list -> string
(** [obj fields] renders [{"k":v,...}] on one line; values must already
    be rendered JSON ({!str}, {!float}, {!int}, {!bool}). *)

val write_lines : string list -> string -> unit
(** [write_lines lines path] writes each line plus ["\n"] to [path]. *)

(** Incremental line-at-a-time JSONL output for long-running emitters
    (the route daemon, streaming serve runs).  Every {!Writer.write}
    appends one complete line plus its newline and flushes before
    returning, so an abrupt exit can never leave a truncated last line
    — the invariant the CI strict-JSON gate checks.  All open writers
    are registered so a signal handler can {!flush_all_writers} before
    exiting. *)
module Writer : sig
  type t

  val create : string -> t
  (** Opens (truncating) [path] and registers the writer. *)

  val path : t -> string

  val write : t -> string -> unit
  (** Appends [line ^ "\n"] and flushes.
      @raise Invalid_argument after {!close}. *)

  val close : t -> unit
  (** Flushes, closes and unregisters.  Idempotent. *)
end

val flush_all_writers : unit -> unit
(** Flushes every open {!Writer} — called from SIGINT/SIGTERM handlers
    so partial output on disk always ends at a line boundary. *)

val validate : string -> (unit, string) result
(** Strict RFC 8259 recognizer for exactly one JSON value (no trailing
    garbage).  The test suite validates every emitted row through this,
    so an ["inf"]/["nan"] token regression fails [dune runtest], not
    just the CI python gate. *)
