(* Admission control: decide, before any work is spent, whether a
   query can still be served.  Two triggers, both cheap:

   - queue depth: more than [max_queue] requests already waiting in
     the shard means the tier is overloaded; shedding the tail early
     keeps the served latencies bounded instead of letting every
     request time out late (classic load-shedding economics).
   - deadline feasibility: if the remaining batch budget cannot fit
     even [headroom] times the shard's estimated per-query cost, the
     query would be dead on arrival — refuse it now.

   The cost estimate is an EWMA the guard chain keeps while a batch
   deadline is bounded; with no estimate (0.0) feasibility cannot be
   judged and only the queue-depth trigger applies. *)

type config = {
  max_queue : int; (* admit while queued <= max_queue *)
  headroom : float; (* required remaining budget, in per-query costs *)
}

let default_config = { max_queue = max_int; headroom = 1.0 }

let make_config ?(max_queue = max_int) ?(headroom = 1.0) () =
  if max_queue < 0 then invalid_arg "Shed.make_config: negative max_queue";
  if not (headroom >= 0.0) then invalid_arg "Shed.make_config: negative headroom";
  { max_queue; headroom }

(* true = shed *)
let decide cfg ~queued ~remaining_s ~est_cost_s =
  queued > cfg.max_queue
  || (remaining_s < infinity && est_cost_s > 0.0 && remaining_s < cfg.headroom *. est_cost_s)
