(* A reusable pool of worker domains.

   OCaml 5 domains are heavyweight (each owns a minor heap and takes a
   slot of the runtime's fixed domain table), so spawning fresh domains
   per parallel region wastes milliseconds per call and caps how often
   parallelism pays off.  This pool spawns its workers once; each
   [parallel_for] publishes one job (a chunked atomic work counter) to
   the sleeping workers, the caller participates as the extra lane, and
   the workers go back to sleep.

   Correctness notes:
   - Results must be written to per-index slots by the body; the pool
     itself guarantees only that every index in [0, n) is executed
     exactly once and that all writes are visible to the caller when
     [parallel_for] returns (the join happens under the pool mutex).
   - The first exception raised by any lane is re-raised in the caller
     (with the raising lane's backtrace) after every lane has drained;
     remaining indexes may be skipped.
   - Reentrancy: a [parallel_for] issued while the pool is already
     running a job (from a nested body or another domain) degrades to a
     sequential loop in the caller rather than deadlocking.

   Crash tolerance: a [?chaos] plan injects deterministic lane faults —
   each worker lane's fate is drawn once per job (crash_rate decides
   whether the lane dies on its first claim), and surviving lanes can
   stall (sleep before a chunk).  A crashed lane pushes its claimed but
   unexecuted chunk onto a requeue list that surviving lanes drain
   after the main counter is exhausted, so the exactly-once guarantee
   holds even when lanes are lost mid-job.  The caller lane (lane 0)
   never crashes, so at least one lane always survives to finish the
   job.  Chaos decisions are drawn from a splitmix64 stream seeded by
   (plan seed, job generation, lane), mirroring Fault_plan's
   nested-by-rate idiom: the same seed yields the same fault plan. *)

type chaos = { seed : int; crash_rate : float; stall_rate : float; stall_s : float }

let chaos_plan ?(crash_rate = 0.0) ?(stall_rate = 0.0) ?(stall_s = 0.001) ~seed () =
  let check what r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "Domain_pool.chaos_plan: %s %g outside [0, 1]" what r)
  in
  check "crash_rate" crash_rate;
  check "stall_rate" stall_rate;
  if not (stall_s >= 0.0) then invalid_arg "Domain_pool.chaos_plan: negative stall_s";
  { seed; crash_rate; stall_rate; stall_s }

type run_stats = { requeued : int; lost_lanes : int; stalls : int }

let no_stats = { requeued = 0; lost_lanes = 0; stalls = 0 }

type job = {
  body : int -> unit;
  next : int Atomic.t;
  total : int;
  chunk : int;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  chaos : chaos option;
  gen : int; (* seeds the per-lane chaos stream *)
  lanes : int; (* participants: workers + the caller *)
  rq_mutex : Mutex.t;
  requeue : (int * int) Queue.t; (* chunks abandoned by crashed lanes *)
  main_done : int Atomic.t; (* lanes done with the claim phase *)
  requeued : int Atomic.t;
  lost : int Atomic.t;
  stalled : int Atomic.t;
}

type t = {
  size : int; (* lanes, including the calling domain *)
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable running : int; (* workers still inside the current job *)
  mutable busy : bool; (* a parallel_for is in flight *)
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let domains t = t.size

let record_failure j e =
  let bt = Printexc.get_raw_backtrace () in
  ignore (Atomic.compare_and_set j.failure None (Some (e, bt)))

let exec_range j start stop =
  try
    for i = start to stop - 1 do
      j.body i
    done
  with e -> record_failure j e

(* Drain the requeue list left behind by crashed lanes.  A lane may
   reach the empty list before a crashing lane has pushed its chunk, so
   "empty" only terminates the drain once every lane has left the claim
   phase (each lane bumps [main_done] exactly once). *)
let drain_requeue j =
  let pop () =
    Mutex.lock j.rq_mutex;
    let r = if Queue.is_empty j.requeue then None else Some (Queue.pop j.requeue) in
    Mutex.unlock j.rq_mutex;
    r
  in
  let rec loop () =
    if Atomic.get j.failure = None then
      match pop () with
      | Some (start, stop) ->
          exec_range j start stop;
          loop ()
      | None ->
          if Atomic.get j.main_done < j.lanes then begin
            Domain.cpu_relax ();
            loop ()
          end
  in
  loop ()

let run_job j ~lane =
  let chaos_rng =
    match j.chaos with
    | Some c when c.crash_rate > 0.0 || c.stall_rate > 0.0 ->
        Some (c, Rng.create ((c.seed * 1_000_003) + (j.gen * 8191) + lane))
    | _ -> None
  in
  (* a worker lane's fate is sealed when the job starts, not per chunk:
     a doomed lane dies on its first claim whether or not any work is
     left, so a crash_rate of 1.0 loses every worker lane regardless of
     how fast the caller drains the counter.  The caller (lane 0) never
     crashes — at least one lane survives to finish the job. *)
  let dies =
    match chaos_rng with
    | Some (c, rng) when lane > 0 && c.crash_rate > 0.0 -> Rng.float rng 1.0 < c.crash_rate
    | _ -> false
  in
  let crashed = ref false in
  if dies then begin
    (* the lane may die holding a claimed chunk: requeue it for the
       survivors, then abandon the job *)
    let start = Atomic.fetch_and_add j.next j.chunk in
    if start < j.total then begin
      let stop = min j.total (start + j.chunk) in
      Mutex.lock j.rq_mutex;
      Queue.push (start, stop) j.requeue;
      Mutex.unlock j.rq_mutex;
      ignore (Atomic.fetch_and_add j.requeued (stop - start))
    end;
    Atomic.incr j.lost;
    crashed := true
  end
  else begin
    (* claim phase: pull chunks off the shared counter until exhausted
       or a failure surfaces *)
    let rec claim () =
      if Atomic.get j.failure = None then begin
        (match chaos_rng with
        | Some (c, rng) when c.stall_rate > 0.0 && Rng.float rng 1.0 < c.stall_rate ->
            Atomic.incr j.stalled;
            Unix.sleepf c.stall_s
        | _ -> ());
        let start = Atomic.fetch_and_add j.next j.chunk in
        if start < j.total then begin
          exec_range j start (min j.total (start + j.chunk));
          claim ()
        end
      end
    in
    claim ()
  end;
  Atomic.incr j.main_done;
  if not !crashed then drain_requeue j

let worker t ~lane () =
  let rec wait_for gen =
    Mutex.lock t.mutex;
    while (not t.stopped) && t.generation = gen do
      Condition.wait t.work t.mutex
    done;
    if t.stopped then Mutex.unlock t.mutex
    else begin
      let gen = t.generation in
      let j = Option.get t.job in
      Mutex.unlock t.mutex;
      run_job j ~lane;
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex;
      wait_for gen
    end
  in
  wait_for 0

let create ~domains =
  (* the runtime supports ~128 live domains; stay well clear so several
     pools (tests spawn a few) can coexist *)
  let size = max 1 (min domains 64) in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      generation = 0;
      running = 0;
      busy = false;
      stopped = false;
      workers = [||];
    }
  in
  t.workers <- Array.init (size - 1) (fun i -> Domain.spawn (worker t ~lane:(i + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    t.stopped <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let sequential_for n f =
  for i = 0 to n - 1 do
    f i
  done

let parallel_for_stats ?(chunk = 16) ?chaos t ~n f =
  if n <= 0 then no_stats
  else if t.size <= 1 then begin
    (* a single lane cannot lose a worker: chaos is inert here (the
       caller never crashes), so run plainly *)
    sequential_for n f;
    no_stats
  end
  else begin
    let chunk = max 1 chunk in
    Mutex.lock t.mutex;
    if t.busy || t.stopped then begin
      (* nested or post-shutdown use: stay correct, drop parallelism *)
      Mutex.unlock t.mutex;
      sequential_for n f;
      no_stats
    end
    else begin
      let j =
        {
          body = f;
          next = Atomic.make 0;
          total = n;
          chunk;
          failure = Atomic.make None;
          chaos;
          gen = t.generation + 1;
          lanes = t.size;
          rq_mutex = Mutex.create ();
          requeue = Queue.create ();
          main_done = Atomic.make 0;
          requeued = Atomic.make 0;
          lost = Atomic.make 0;
          stalled = Atomic.make 0;
        }
      in
      t.busy <- true;
      t.job <- Some j;
      t.generation <- t.generation + 1;
      t.running <- Array.length t.workers;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      run_job j ~lane:0;
      Mutex.lock t.mutex;
      while t.running > 0 do
        Condition.wait t.finished t.mutex
      done;
      t.job <- None;
      t.busy <- false;
      Mutex.unlock t.mutex;
      (* every lane has drained and the pool state is reset: re-raising
         here leaves the pool reusable for the next job *)
      match Atomic.get j.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          {
            requeued = Atomic.get j.requeued;
            lost_lanes = Atomic.get j.lost;
            stalls = Atomic.get j.stalled;
          }
    end
  end

let parallel_for ?chunk t ~n f = ignore (parallel_for_stats ?chunk t ~n f)

(* ---- the process-wide shared pool ---- *)

let default_domains () = min 8 (Domain.recommended_domain_count ())

let shared_lock = Mutex.create ()
let shared_pool : t option ref = ref None

let shared () =
  Mutex.lock shared_lock;
  let p =
    match !shared_pool with
    | Some p -> p
    | None ->
        let p = create ~domains:(default_domains ()) in
        shared_pool := Some p;
        p
  in
  Mutex.unlock shared_lock;
  p

(* Graceful process-wide teardown: joins the shared workers and clears
   the singleton, so a later [shared ()] re-initializes from scratch.
   Long-running entry points (the route daemon) call this on exit so
   the process never dies with domains parked in Condition.wait. *)
let shutdown_shared () =
  Mutex.lock shared_lock;
  let old = !shared_pool in
  shared_pool := None;
  Mutex.unlock shared_lock;
  Option.iter shutdown old
