(* Deadline budgets over the swappable process clock.  A deadline is
   its absolute expiry alone; [infinity] means "no budget", which never
   expires — starting or checking an unbounded deadline reads no clock
   and allocates nothing. *)

module Clock = Cr_obs.Clock

type t = float

let start ?budget_s () =
  match budget_s with
  | None -> infinity
  | Some b ->
      if not (b >= 0.0) then invalid_arg "Deadline.start: negative budget";
      !Clock.now () +. b

let bounded t = t < infinity

let remaining t = if bounded t then t -. !Clock.now () else infinity

let expired t = bounded t && !Clock.now () >= t
