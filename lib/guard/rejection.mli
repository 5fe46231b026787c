(** Structured refusals of the guarded serving path.

    Guards never raise at the caller: a query that cannot be served
    maps to exactly one of these constructors, so a guarded batch is a
    total function from queries to [(measured, t) result]. *)

type t =
  | Timed_out  (** batch or per-query deadline budget exhausted *)
  | Shed  (** refused at admission: queue depth or infeasible deadline *)
  | Breaker_open  (** the shard's circuit breaker is open *)
  | Worker_lost  (** the executing worker was lost and retries ran out *)

val all : t list
(** Every constructor, in declaration order (for table/report loops). *)

val to_string : t -> string

val counter : t -> string
(** The [guard.*] counter name the daemon increments for this
    rejection (e.g. [guard.timeouts]). *)
