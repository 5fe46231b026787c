(** The directories of a tree-routing scheme, stored flat.

    A tree has one directory slot per node (a position or a DFS index,
    as the scheme defines it); each slot maps network identifiers to
    {e targets} (tree indexes).  All slots share three arrays, and each
    slot's entries are sorted by identifier, so a lookup is a binary
    search and building costs no per-node table. *)

type t

val build : slots:int -> slot:int array -> ident:int array -> target:int array -> t
(** Entry [j] puts [ident.(j) -> target.(j)] in slot [slot.(j)], for
    slots [0 .. slots-1].  The entries come in ascending identifier
    order (so no slot needs sorting), distinct within a slot.
    @raise Invalid_argument otherwise. *)

val find : t -> int -> int -> int
(** [find t d ident] is the target of [ident] in slot [d], or -1. *)

val fold_targets : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Folds over the targets of slot [d]. *)
