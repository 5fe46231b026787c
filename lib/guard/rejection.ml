(* The structured refusals of the guarded serving path.  Every guard
   rejects by returning one of these — never by raising — so a batch
   always terminates with a total outcome array. *)

type t = Timed_out | Shed | Breaker_open | Worker_lost

let all = [ Timed_out; Shed; Breaker_open; Worker_lost ]

let to_string = function
  | Timed_out -> "timed_out"
  | Shed -> "shed"
  | Breaker_open -> "breaker_open"
  | Worker_lost -> "worker_lost"

(* the daemon's counter key for this rejection, under the guard.*
   namespace *)
let counter = function
  | Timed_out -> "guard.timeouts"
  | Shed -> "guard.sheds"
  | Breaker_open -> "guard.breaker_opens"
  | Worker_lost -> "guard.worker_lost"
