(* Deadline budgets over the swappable process clock.  A deadline is an
   absolute expiry captured at [start]; [None] means "no budget", which
   never expires — checking an unbounded deadline is one comparison and
   no clock read. *)

module Clock = Cr_obs.Clock

type t = { started : float; expiry : float (* infinity = no budget *) }

let start ?budget_s () =
  let now = !Clock.now () in
  match budget_s with
  | None -> { started = now; expiry = infinity }
  | Some b ->
      if not (b >= 0.0) then invalid_arg "Deadline.start: negative budget";
      { started = now; expiry = now +. b }

let elapsed t = !Clock.now () -. t.started

let bounded t = t.expiry < infinity

let remaining t = if bounded t then t.expiry -. !Clock.now () else infinity

let expired t = bounded t && !Clock.now () >= t.expiry
