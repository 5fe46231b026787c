(* The process clock: one swappable time source for every timer —
   guard deadlines and breaker cooldowns, engine latency, profile
   stages and the socket server's deadlines.  Tests install a fake
   clock (with_fake) to drive expiry, cooldowns and latencies
   deterministically.

   The production default is CLOCK_MONOTONIC (via bechamel's stub), not
   the wall clock: every reading is only ever subtracted from another,
   and in a daemon that runs for hours a wall-clock step (NTP slew,
   manual reset, leap smearing) would expire every in-flight budget or
   idle connection at once — or worse, push expiry arbitrarily far out.
   A monotonic source cannot go backwards and is immune to steps, so
   elapsed time is always truthful.  The origin is arbitrary (boot
   time), which is fine: nothing needs an absolute epoch. *)

let monotonic () = 1e-9 *. Int64.to_float (Monotonic_clock.now ())

let now : (unit -> float) ref = ref monotonic

(* Sleeping is also swappable so retry backoff never blocks a test. *)
let sleep : (float -> unit) ref = ref (fun s -> if s > 0.0 then Unix.sleepf s)

let with_fake f =
  let saved_now = !now and saved_sleep = !sleep in
  let t = ref 0.0 in
  now := (fun () -> !t);
  (* a fake sleep advances fake time, so backoff interacts with
     deadlines exactly as it would on a real clock *)
  sleep := (fun s -> if s > 0.0 then t := !t +. s);
  Fun.protect
    ~finally:(fun () ->
      now := saved_now;
      sleep := saved_sleep)
    (fun () -> f (fun dt -> t := !t +. dt))
