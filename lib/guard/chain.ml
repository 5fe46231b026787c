(* The per-query guard chain, coded once for the engine and the daemon.

   Admission comes first and costs no work: an expired batch budget
   times out, overload is shed before it can burn breaker samples, and
   only then does the breaker get a say.  Execution brackets the query
   with the chaos plan's injected faults, bounded retry and both
   deadlines, and feeds the outcome back to the breaker.

   The cost estimate is an EWMA of admitted queries' cost; shedding
   compares it with the remaining batch budget, so it is only kept (two
   clock reads and an update per query) when that budget is bounded. *)

module Clock = Cr_obs.Clock

type t = {
  policy : Policy.t;
  breaker : Breaker.t option;
  mutable est_cost_s : float; (* EWMA per-query cost; 0.0 = unknown *)
  mutable retries : int;
  mutable stalls : int;
}

let create policy =
  {
    policy;
    breaker = Option.map Breaker.create policy.Policy.breaker;
    est_cost_s = 0.0;
    retries = 0;
    stalls = 0;
  }

let breaker_state t = Option.map Breaker.state t.breaker
let retries t = t.retries
let stalls t = t.stalls

(* EWMA weight of the newest cost sample *)
let est_alpha = 0.2

let admit t ~batch ~queued =
  if Deadline.expired batch then Some Rejection.Timed_out
  else if
    match t.policy.Policy.shed with
    | None -> false
    | Some cfg ->
        Shed.decide cfg ~queued ~remaining_s:(Deadline.remaining batch)
          ~est_cost_s:t.est_cost_s
  then Some Rejection.Shed
  else if match t.breaker with Some br -> not (Breaker.allow br) | None -> false then
    Some Rejection.Breaker_open
  else None

let run t chaos ~batch ~q f =
  let timed = Deadline.bounded batch in
  let t0 = if timed then !Clock.now () else 0.0 in
  let stall = Chaos.query_stall_s chaos ~q in
  if stall > 0.0 then begin
    t.stalls <- t.stalls + 1;
    !Clock.sleep stall
  end;
  let injected = Chaos.query_fails chaos ~q in
  let qdl = Deadline.start ?budget_s:t.policy.Policy.query_budget_s () in
  let r =
    Retry.run t.policy.Policy.retry ~key:q (fun ~attempt ->
        if attempt > 1 then t.retries <- t.retries + 1;
        if attempt <= injected then Error Rejection.Worker_lost else Ok (f ()))
  in
  let r =
    match r with
    | Ok _ when Deadline.expired qdl || Deadline.expired batch -> Error Rejection.Timed_out
    | r -> r
  in
  (match t.breaker with Some br -> Breaker.record br ~ok:(Result.is_ok r) | None -> ());
  if timed then begin
    let cost = !Clock.now () -. t0 in
    t.est_cost_s <-
      (if t.est_cost_s = 0.0 then cost
       else ((1.0 -. est_alpha) *. t.est_cost_s) +. (est_alpha *. cost))
  end;
  r
