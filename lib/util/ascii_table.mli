(** Fixed-width ASCII table rendering for experiment reports.

    The bench harness prints each reproduced table/figure as an aligned
    text table; this module does the layout. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given header cells and
    per-column alignment. *)

val add_row : t -> string list -> unit
(** Appends a data row.  Rows shorter than the header are padded with
    empty cells; longer rows raise [Invalid_argument]. *)

val add_sep : t -> unit
(** Appends a horizontal separator row. *)

val render : t -> string
(** Renders the table, headers, separators and all, as a string ending in
    a newline. *)

val print : t -> unit
(** [render] to stdout. *)

val fmt_float : ?dec:int -> float -> string
(** Fixed-decimal float formatting helper (default 2 decimals). *)

val fmt_bits : int -> string
(** Human-readable bit count, e.g. ["12.4 Kbit"]. *)
