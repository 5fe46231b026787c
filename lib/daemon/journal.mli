(** Checksummed, crash-recoverable mutation journal.

    Record format, one per line ('#' comments and blanks allowed):
    {v
    r <crc32hex> <seq> <mutation>
    v}
    with the CRC32 taken over ["<seq> <mutation>"] and [seq] counting
    records from 1.  Legacy journals (bare [Graph.mutation_to_string]
    lines, the pre-v2 format) still load.

    The writer is the daemon's durability point: {!append} returns only
    after the record is flushed per the {!fsync} policy, so an [ok]
    reply sent after {!append} means the mutation is durable.  The
    reader never raises on damage: it stops at the first invalid
    record — torn tail, checksum mismatch, sequence gap — and reports
    it as a {!truncation} point, because an interrupted append damages
    at most the record being written and everything before it is intact
    by construction. *)

(** When journal bytes are forced to disk.  [Every] fsyncs each record
    (survives machine crash), [Batch n] fsyncs every [n] records and on
    close, [Off] never fsyncs ([append] still flushes the channel, so
    acknowledged records survive process death in the OS buffer). *)
type fsync = Every | Batch of int | Off

val fsync_to_string : fsync -> string

val fsync_of_string : string -> (fsync, string) result
(** Accepts [every], [off], [batch] (interval 32) and [batch:N]. *)

(** {2 Writer} *)

type writer

val create : ?fsync:fsync -> ?append:bool -> ?seq:int -> string -> writer
(** [create path] opens a fresh journal (truncating, with a version
    header comment).  [~append:true] opens an existing journal for
    recovery: positions at end of file and continues sequence numbers
    from [~seq] (the last valid record's number, default 0).
    [fsync] defaults to {!Every}. *)

val records : writer -> int
(** Sequence number of the last record written. *)

val bytes : writer -> int
(** File offset after the last append — the [journal_offset] a snapshot
    taken now should record. *)

val append : writer -> Cr_graph.Graph.mutation -> unit
(** Write one record and make it durable per the fsync policy before
    returning.  Fires {!Crashpoint.site.Pre_flush} after buffering and
    {!Crashpoint.site.Post_flush_pre_ack} after the flush/fsync.
    @raise Invalid_argument on a closed writer. *)

val sync : writer -> unit
(** Flush and fsync regardless of policy (no-op when closed). *)

val fsync_failures : writer -> int
(** How many fsyncs have failed on this writer.  A non-zero count means
    acknowledged mutations may not survive a {e machine} crash (they
    were still flushed to the OS, so process death alone loses
    nothing); each failure also warns on stderr, and the daemon
    surfaces the count in its stats. *)

val fsync_hook : (Unix.file_descr -> unit) ref
(** The fsync implementation, [Unix.fsync] by default.  Test seam: swap
    in a raising function to exercise the fsync-failure policy, restore
    it afterwards. *)

val close : writer -> unit
(** Flush, fsync (unless the policy is {!fsync.Off}) and close.
    Idempotent. *)

val abandon : writer -> unit
(** Simulated SIGKILL: close the descriptor {e without} flushing the
    channel, losing any buffered bytes — the crash seam used by tests
    to model unclean death in-process. *)

(** {2 Reader} *)

type truncation = {
  lineno : int;  (** 1-based line of the first invalid record, counted
                     from the read offset *)
  byte : int;  (** absolute byte offset where the invalid data starts *)
  reason : string;
}

type read_result = {
  mutations : Cr_graph.Graph.mutation list;  (** the valid prefix, in order *)
  read_records : int;
  valid_bytes : int;
      (** absolute offset just past the last valid line — what the file
          should be truncated to before appending *)
  truncation : truncation option;  (** [None] iff the journal (suffix) was fully valid *)
}

val load : ?offset:int -> ?expect_seq:int -> string -> read_result
(** Read the valid record prefix starting at byte [offset] (default 0,
    the whole file).  [expect_seq] pins the sequence number the first
    record must carry (recovery passes the snapshot's
    [journal_records + 1]); without it the first record's number is
    accepted as-is and continuity is enforced from there.  Never raises
    on damaged content; raises [Sys_error] only if the file cannot be
    read. *)

val truncate_torn : string -> read_result -> unit
(** If [load] reported a truncation, truncate the file at
    [valid_bytes] so the journal can be appended to cleanly. *)
