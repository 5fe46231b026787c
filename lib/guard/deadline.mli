(** Deadline budgets (per query or per batch) over {!Cr_obs.Clock.now}.

    A deadline is the absolute expiry captured at {!start}.  Without a
    budget it never expires: starting one returns a shared value and
    checking it is one comparison, and neither reads the clock.
    A zero budget is legal and is already expired — the degenerate case
    the chaos suite uses to prove total shedding terminates. *)

type t

val start : ?budget_s:float -> unit -> t
(** Starts the budget now.  [None] = unbounded: one shared value, no
    clock read.
    @raise Invalid_argument on a negative budget. *)

val remaining : t -> float
(** Seconds until expiry; [infinity] when unbounded, negative once
    expired. *)

val expired : t -> bool

val bounded : t -> bool
(** [true] iff a budget was given. *)
