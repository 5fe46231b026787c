(** Binary min-heap of node indexes keyed by the caller's float array,
    with decrease-key by element id.

    Specialized for Dijkstra over node indexes [0 .. n-1]: an element's
    priority is [keys.(x)], read from the array given to {!create}
    whenever the heap compares, so no priority is passed in or out as a
    float (which would box it).  The caller may change a present
    element's key only by lowering it, and must then call
    {!insert_or_decrease} before any other heap operation. *)

type t

val create : float array -> t
(** [create keys] makes an empty heap able to hold elements
    [0 .. Array.length keys - 1], keyed by [keys]. *)

val is_empty : t -> bool

val size : t -> int

val insert : t -> int -> unit
(** [insert h x] inserts element [x] at priority [keys.(x)].
    @raise Invalid_argument if [x] is already present or out of range. *)

val insert_or_decrease : t -> int -> unit
(** Inserts [x], or, if present, restores the heap order after the
    caller lowered [keys.(x)]. *)

val pop_min : t -> int
(** Removes and returns the minimum element under the strict
    (priority, element) order — priority ties break toward the smaller
    element index, so the pop order is a pure function of the inserted
    contents, independent of insertion order.  The caller reads its
    priority from [keys].
    @raise Not_found on an empty heap. *)
