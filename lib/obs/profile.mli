(** Construction profiling: per-stage timers on {!Clock} and bit
    counters for the preprocessing pipeline.

    A profile is a mutable set of named stages in first-touch order.
    [Agm06.build ?profile] charges its stages (decomposition, landmark
    hierarchy, nearby sets, sparse trees, dense covers, local records)
    and [crt build --profile] adds APSP around it, reporting
    bits-and-seconds per stage. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t stage f] runs [f ()], charging its elapsed time to [stage]
    (accumulating across calls; exceptions still charge). *)

val add_bits : t -> string -> int -> unit
(** Attribute storage volume to a stage (e.g. the bits the stage's
    tables occupy), so a report shows where both time and space go. *)

val stages : t -> (string * float * int) list
(** [(name, seconds, bits)] per stage, in first-touch order. *)

val total_seconds : t -> float

val total_bits : t -> int

val report : ?title:string -> t -> string
(** Rendered ASCII table (stage, seconds, share, bits) ending in a
    newline. *)

val to_json : t -> string
(** One strict-JSON object with a [stages] array, in stage order. *)

