(** Deadline budgets (per query or per batch) over {!Cr_obs.Clock.now}.

    A deadline captures an absolute expiry at {!start}; without a
    budget it never expires, and checking it is one comparison with no
    clock read.
    A zero budget is legal and is already expired — the degenerate case
    the chaos suite uses to prove total shedding terminates. *)

type t

val start : ?budget_s:float -> unit -> t
(** Starts the budget now.  [None] = unbounded.
    @raise Invalid_argument on a negative budget. *)

val elapsed : t -> float
(** Seconds since {!start}. *)

val remaining : t -> float
(** Seconds until expiry; [infinity] when unbounded, negative once
    expired. *)

val expired : t -> bool

val bounded : t -> bool
(** [true] iff a budget was given. *)
