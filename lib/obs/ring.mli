(** Bounded ring buffer — the daemon keeps its repair-time and
    staleness sample windows in one each.

    [push] is O(1) and never grows the buffer: once full, each push
    overwrites the oldest item and bumps {!dropped}.  Items sit in a
    plain array made on the first push, with no box of their own, so a
    [float t] holds a flat float array and a push retains nothing
    beyond its slot; {!clear} drops the array.  Thread-safe: a mutex
    serializes the operations, so domains sharing one ring interleave
    whole items (never torn state) and [length + dropped = total
    pushes] holds under any interleaving — though a per-domain ring
    still gives better ordering. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val length : 'a t -> int
(** Items currently held ([<= capacity]). *)

val dropped : 'a t -> int
(** Items overwritten since creation or the last {!clear}. *)

val push : 'a t -> 'a -> unit

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Retained items, oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
