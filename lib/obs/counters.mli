(** Named monotonic counters with thread-safe increments.

    The daemon's per-command and guard-rejection tallies live here,
    read back by name for its [stats] line.  The name table is
    mutex-guarded and each counter is an [Atomic], so several domains
    may bump one instance at once. *)

type t

val create : unit -> t

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val get : t -> string -> int
(** 0 for a never-touched counter. *)
