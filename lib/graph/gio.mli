(** Plain-text graph serialization.

    Format (one record per line, '#' comments allowed):
    {v
    graph <n> <m>
    name <node> <identifier>       (optional; default identity)
    edge <u> <v> <weight>
    v}
    Round-trips exactly through {!to_string} / {!of_string}. *)

exception Parse_error of int * string
(** [Parse_error (line, reason)] — every malformed input case (bad
    integers or floats, out-of-range node indexes, negative weights,
    self-loops, unknown records, a missing or duplicate header) raises
    this, with the 1-based line number ([0] when the error is global,
    e.g. a missing header). *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** @raise Parse_error on malformed input. *)

val save : Graph.t -> string -> unit
(** [save g path] writes {!to_string} to a file. *)

val load : string -> Graph.t
(** [load path] parses a file.
    @raise Sys_error or {!Parse_error}. *)

(** {2 Mutation records}

    The one-line parser that the daemon protocol and the daemon's
    journal share: a mutation in the [Graph.mutation_to_string]
    spelling ([setw u v w], [linkdown u v], [linkup u v w],
    [nodedown u], [nodeup u]). *)

val mutation_of_tokens : lineno:int -> string list -> Graph.mutation
(** Parses one already-tokenized mutation record.  Shared with the
    daemon protocol parser so journal and wire grammar cannot drift.
    @raise Parse_error carrying [lineno] on any malformed record
    (unknown keyword, wrong arity, bad integer, non-positive or
    non-finite weight). *)

val mutation_of_string : ?lineno:int -> string -> Graph.mutation
(** Tokenizes and parses one line ([lineno] defaults to 1).
    @raise Parse_error as {!mutation_of_tokens}. *)

(** {2 Snapshot codec}

    A durability checkpoint: a graph together with the journal position
    it corresponds to ([journal_records] mutation records applied,
    journal byte offset [journal_offset]) and the serving epoch at
    checkpoint time.  Serialized as a one-line header carrying a CRC32
    of the whole body, then the {!to_string} graph body:
    {v
    snapshot 1 <epoch> <journal_records> <journal_offset> <crc32hex>
    graph <n> <m>
    ...
    v}
    A truncated or corrupted snapshot fails the checksum and parses as
    {!Parse_error} — recovery falls back to an older checkpoint rather
    than loading half a graph. *)

type snapshot = {
  epoch : int;
  journal_records : int;
  journal_offset : int;
  graph : Graph.t;
}

val snapshot_to_string : snapshot -> string

val snapshot_of_string : string -> snapshot
(** @raise Parse_error on a malformed header, a checksum mismatch
    (torn/corrupt write) or a malformed graph body. *)
