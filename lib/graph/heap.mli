(** Binary min-heap keyed by floats, with decrease-key by element id.

    Specialized for Dijkstra over node indexes [0 .. n-1]: elements are
    small integers, priorities are floats, and the heap keeps a positions
    array for O(log n) [decrease]. *)

type t

val create : int -> t
(** [create n] makes an empty heap able to hold elements [0 .. n-1]. *)

val is_empty : t -> bool

val size : t -> int

val insert : t -> int -> float -> unit
(** [insert h x p] inserts element [x] with priority [p].
    @raise Invalid_argument if [x] is already present or out of range. *)

val decrease : t -> int -> float -> unit
(** [decrease h x p] lowers [x]'s priority to [p].
    @raise Invalid_argument if [x] is absent or [p] is larger than the
    current priority. *)

val insert_or_decrease : t -> int -> float -> unit
(** Inserts [x], or decreases its key if present and the new priority is
    smaller; otherwise does nothing. *)

val pop_min : t -> int * float
(** Removes and returns the minimum element under the strict
    (priority, element) order — priority ties break toward the smaller
    element index, so the pop order is a pure function of the inserted
    contents, independent of insertion order.
    @raise Not_found on an empty heap. *)

val pop : t -> int
(** {!pop_min} without the priority, for callers that keep it
    themselves: no allocation.
    @raise Not_found on an empty heap. *)

val priority : t -> int -> float
(** Current priority of a present element.
    @raise Not_found if absent. *)
