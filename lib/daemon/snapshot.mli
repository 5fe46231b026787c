(** Atomic snapshot checkpoint store.

    A directory of [snapshot-<epoch>.crs] files in the
    {!Cr_graph.Gio.snapshot} codec.  {!write} is atomic (full temp
    file, fsync, rename), so a crash mid-checkpoint leaves the new
    snapshot either complete or absent — never half-written.
    {!load_latest} walks candidates newest-first and skips corrupt
    ones, degrading to the previous checkpoint instead of failing. *)

val write : ?retain:int -> dir:string -> Cr_graph.Gio.snapshot -> string
(** Atomically persist a checkpoint into [dir] (created if needed) and
    prune all but the newest [retain] (default 4)
    snapshots.  After the rename the containing directory's fd is
    fsynced (via {!fsync_dir_hook}), so the checkpoint's directory
    entry itself survives a machine crash — rename alone only makes
    the write atomic, not durable.  Fires
    {!Crashpoint.site.Mid_snapshot} between the temp write and the
    rename and {!Crashpoint.site.Post_rename} between the rename and
    the directory fsync.  Returns the final path. *)

val fsync_dir_hook : (string -> unit) ref
(** How {!write} fsyncs the snapshot directory after the rename (opens
    the directory read-only and fsyncs the fd; open/fsync errors are
    tolerated).  Test seam: swap in a recording or failing function,
    restore it afterwards. *)

val load_latest : string -> (string * Cr_graph.Gio.snapshot) option * (string * string) list
(** Newest snapshot that parses and checksums clean, as
    [(path, snapshot)], plus the [(path, reason)] list of newer
    candidates that were skipped as corrupt. *)
