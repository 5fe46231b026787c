(* Per-shard circuit breaker: closed / open / half-open.

   Closed tracks the last [window] outcomes in a ring; when at least
   [min_samples] are present and the failure rate reaches [threshold],
   the breaker trips Open and rejects everything for [cooldown_s]
   (measured on the guard clock).  After the cooldown it goes
   Half_open and admits up to [probes] trial requests: one probe
   failure re-opens (restarting the cooldown), while [probes]
   consecutive successes close it and reset the window.

   Like the per-lane caches, one breaker belongs to exactly one
   engine shard, whose slice has a single executor per batch — so
   there is no internal locking and transitions are deterministic in
   the outcome sequence plus the clock. *)

module Clock = Cr_obs.Clock

type config = {
  window : int;
  threshold : float; (* trip when failures / samples >= threshold *)
  min_samples : int; (* never trip before this many outcomes *)
  cooldown_s : float;
  probes : int; (* half-open trial budget *)
}

let default_config =
  { window = 32; threshold = 0.5; min_samples = 8; cooldown_s = 0.05; probes = 2 }

let make_config ?(window = 32) ?(threshold = 0.5) ?(min_samples = 8) ?(cooldown_s = 0.05)
    ?(probes = 2) () =
  if window < 1 then invalid_arg "Breaker.make_config: window must be >= 1";
  if not (threshold > 0.0 && threshold <= 1.0) then
    invalid_arg "Breaker.make_config: threshold outside (0, 1]";
  if min_samples < 1 then invalid_arg "Breaker.make_config: min_samples must be >= 1";
  if not (cooldown_s >= 0.0) then invalid_arg "Breaker.make_config: negative cooldown";
  if probes < 1 then invalid_arg "Breaker.make_config: probes must be >= 1";
  { window; threshold; min_samples; cooldown_s; probes }

type state = Closed | Open | Half_open

type t = {
  cfg : config;
  ring : bool array; (* true = failure; ring of the last [window] outcomes *)
  mutable idx : int;
  mutable samples : int; (* filled slots, <= window *)
  mutable failures : int; (* failures among the filled slots *)
  mutable state : state;
  mutable opened_at : float;
  mutable probes_allowed : int; (* half-open admissions still available *)
  mutable probe_successes : int;
  mutable opens : int; (* lifetime Closed/Half_open -> Open transitions *)
}

let create cfg =
  {
    cfg;
    ring = Array.make cfg.window false;
    idx = 0;
    samples = 0;
    failures = 0;
    state = Closed;
    opened_at = neg_infinity;
    probes_allowed = 0;
    probe_successes = 0;
    opens = 0;
  }

let state t = t.state
let opens t = t.opens
let failure_rate t = if t.samples = 0 then 0.0 else float_of_int t.failures /. float_of_int t.samples

let reset_window t =
  Array.fill t.ring 0 (Array.length t.ring) false;
  t.idx <- 0;
  t.samples <- 0;
  t.failures <- 0

let trip t =
  t.state <- Open;
  t.opened_at <- !Clock.now ();
  t.opens <- t.opens + 1;
  reset_window t

let allow t =
  match t.state with
  | Closed -> true
  | Open ->
      if !Clock.now () -. t.opened_at >= t.cfg.cooldown_s then begin
        t.state <- Half_open;
        t.probes_allowed <- t.cfg.probes;
        t.probe_successes <- 0;
        t.probes_allowed <- t.probes_allowed - 1;
        true
      end
      else false
  | Half_open ->
      if t.probes_allowed > 0 then begin
        t.probes_allowed <- t.probes_allowed - 1;
        true
      end
      else false

let record t ~ok =
  match t.state with
  | Open -> () (* a straggler finishing after the trip carries no signal *)
  | Half_open ->
      if not ok then trip t
      else begin
        t.probe_successes <- t.probe_successes + 1;
        if t.probe_successes >= t.cfg.probes then begin
          t.state <- Closed;
          reset_window t
        end
      end
  | Closed ->
      let evicted = t.ring.(t.idx) in
      t.ring.(t.idx) <- not ok;
      t.idx <- (t.idx + 1) mod t.cfg.window;
      if t.samples < t.cfg.window then t.samples <- t.samples + 1
      else if evicted then t.failures <- t.failures - 1;
      if not ok then t.failures <- t.failures + 1;
      if t.samples >= t.cfg.min_samples && failure_rate t >= t.cfg.threshold then trip t
