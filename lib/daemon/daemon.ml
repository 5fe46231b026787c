module Graph = Cr_graph.Graph
module Gio = Cr_graph.Gio
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Guard = Cr_guard
module Clock = Cr_obs.Clock
module Jsonl = Cr_util.Jsonl
module Stats = Cr_util.Stats
module Counters = Cr_obs.Counters
module Ring = Cr_obs.Ring
module Ttcache = Cr_util.Ttcache
open Compact_routing

(* The daemon serves every query from an immutable last-good [epoch]
   while a background domain repairs the ground truth incrementally
   after each accepted mutation.  The epoch record is swapped whole
   under [lock] — a reader snapshots the record pointer and then works
   lock-free on immutable data, so an answer is always internally
   consistent (never a torn mix of old scheme and new graph). *)

type epoch = {
  id : int;
  folded : int;  (* accepted mutations this epoch holds *)
  graph : Graph.t;
  apsp : Apsp.t;
  agm : Agm06.t;
  scheme : Scheme.t;
  oracle : Cr_oracle.Path_oracle.t;
      (* the second query surface: rebuilt with the scheme on every
         repair, so [path] answers are always internally consistent
         with [route]/[dist] of the same epoch *)
}

type config = {
  params : Params.t;
  policy : Guard.Policy.t;
  chaos : Guard.Chaos.t;
  staleness_every : int;
  repair_hook : (unit -> unit) option;
  fsync : Journal.fsync;
  snapshot_every : int;
  restart_backoff : Guard.Backoff.t;
}

type recovery = {
  snapshot_epoch : int option;  (* epoch of the checkpoint used, if any *)
  snapshots_skipped : int;  (* newer checkpoints rejected as corrupt *)
  replayed : int;  (* journal records replayed past the checkpoint *)
  truncated_bytes : int;  (* torn/corrupt journal tail cut off *)
  truncated_line : int option;
  recovery_s : float;  (* wall time to a serving epoch *)
}

type answer = {
  delivered : bool;
  cost : float;
  hops : int;
  stretch : float;
  walk : int list;
}

(* [stats] percentiles cover the most recent [sample_window] repair
   times and staleness samples: a long-lived daemon keeps a window of
   them, not its whole history.  At most [sample_window] samples wait
   to be priced, too. *)
let sample_window = 4096

(* A staleness sample whose walk is valid on the live graph it was
   taken on, waiting for that graph's distance: [cost] is the walk's
   cost there, and [graph] holds the first [mutations] accepted
   mutations. *)
type sample = { u : int; v : int; cost : float; mutations : int; graph : Graph.t }

type t = {
  cfg : config;
  counters : Counters.t;
  lock : Mutex.t;
  cond : Condition.t;  (* broadcast on: mutation queued, repair done, stop *)
  pending : Graph.mutation Queue.t;  (* accepted, not yet repaired *)
  mutable serving : epoch;  (* last-good; swapped whole, never torn *)
  mutable live : Graph.t;  (* every accepted mutation applied (handle thread only) *)
  mutable accepted : int;  (* mutations queued for repair so far (handle thread only) *)
  mutable repairing : bool;
  mutable poisoned : string option;  (* repair worker died; serving continues *)
  mutable stop : bool;
  mutable quit : bool;
  mutable worker : unit Domain.t option;
  guard : Guard.Chain.t;  (* the query thread's guard chain *)
  mutable lineno : int;
  mutable qindex : int;  (* admitted queries: the chaos plan's index *)
  repair_s : float Ring.t;  (* per-batch repair wall times *)
  stale_stretch : float Ring.t;  (* sampled live-graph stretch of answers *)
  stale_queue : sample Queue.t;  (* samples awaiting their graph's epoch, oldest first *)
  mutable stale_skipped : int;  (* samples dropped on a full [stale_queue] *)
  mutable journal : Journal.writer option;
  snapshot_dir : string option;
  mutable snapshots : int;  (* checkpoints written this run *)
  mutable last_snapshot : (int * float) option;  (* epoch id, wall clock *)
  recovered : recovery option;
  mutable events : Jsonl.Writer.t option;
  (* shared route and path caches (a [dist] is never cached), generation
     = serving epoch id: an epoch swap invalidates both in O(1) (old-epoch
     entries simply never match again), so post-sync answers can never be
     served from a stale epoch.  [route] answers are keyed by the directed
     pair; [path] answers by the canonical (min, max) pair, reversed on
     the way out (Path_oracle.path's own canonicalization makes that
     byte-identical to computing the asked direction). *)
  rcache : answer Ttcache.t option;
  pcache : Cr_oracle.Path_oracle.answer option Ttcache.t option;
}

(* Queued mutations plus the batch being repaired; the caller holds
   [lock]. *)
let backlog_locked t = Queue.length t.pending + if t.repairing then 1 else 0

(* One strict-JSON line to the [events] stream, if any.  The caller
   holds [lock]: the repair worker and the server domain both write
   events, and the lock keeps their bytes from interleaving. *)
let write_event t fields =
  Option.iter (fun w -> Jsonl.Writer.write w (Jsonl.obj fields)) t.events

(* ---- staleness pricing ---------------------------------------------- *)

(* A sample's live stretch, given its graph's distance between its
   endpoints; the window keeps the finite ones. *)
let record_stale t ~cost d =
  let s = Simulator.stretch ~delivered:true ~cost d in
  if Float.is_finite s then Ring.push t.stale_stretch s

(* Pops the oldest queued samples while [keep] holds; the caller holds
   [lock].  Samples are queued in the order they were taken, so their
   mutation counts never decrease along the queue. *)
let pop_samples_locked t keep =
  let rec go acc =
    match Queue.peek_opt t.stale_queue with
    | Some s when keep s ->
        ignore (Queue.pop t.stale_queue);
        go (s :: acc)
    | _ -> List.rev acc
  in
  go []

(* ---- background repair ---------------------------------------------- *)

let drain_batch t =
  let batch = ref [] in
  Queue.iter (fun mu -> batch := mu :: !batch) t.pending;
  Queue.clear t.pending;
  List.rev !batch

let build_epoch ~params ~id ~folded apsp =
  let agm = Agm06.build ~params apsp in
  {
    id;
    folded;
    graph = Apsp.graph apsp;
    apsp;
    agm;
    scheme = Agm06.scheme agm;
    oracle = Cr_oracle.Path_oracle.build ~k:params.Params.k ~seed:params.Params.seed apsp;
  }

let merge_impact a b =
  Dirty.
    {
      sources = a.sources + b.sources;
      levels = List.sort_uniq compare (a.levels @ b.levels);
      sparse_trees = List.sort_uniq compare (a.sparse_trees @ b.sparse_trees);
      dense_covers = List.sort_uniq compare (a.dense_covers @ b.dense_covers);
    }

let repair_batch t base batch =
  (* affectedness tests are only valid against the immediately
     preceding ground truth, so a batch is chained one mutation at a
     time; the scheme is then rebuilt once, deterministically, from the
     repaired ground truth — which is exactly what makes the repaired
     epoch bit-equivalent to a from-scratch build at the final graph
     (the repair-equivalence property test pins this).  The dirty
     sources are recomputed on every core but one, which is left to the
     serving loop: on two cores the worker recomputes them alone. *)
  let domains = max 1 (Cr_util.Domain_pool.default_domains () - 1) in
  let apsp = ref base.apsp and sources = ref 0 and impact = ref Dirty.no_impact in
  List.iter
    (fun mu ->
      impact := merge_impact !impact (Dirty.assess base.agm !apsp mu);
      let apsp', n = Apsp.repair_mutation ~domains !apsp mu in
      apsp := apsp';
      sources := !sources + n)
    batch;
  let folded = base.folded + List.length batch in
  (build_epoch ~params:t.cfg.params ~id:(base.id + 1) ~folded !apsp, !sources, !impact)

let requeue_front t batch =
  (* the failed batch goes back ahead of anything accepted meanwhile,
     so the next attempt replays mutations in acceptance order *)
  let nq = Queue.create () in
  List.iter (fun mu -> Queue.push mu nq) batch;
  Queue.transfer t.pending nq;
  Queue.transfer nq t.pending

let worker_loop t =
  (* Supervised: a failed repair no longer poisons the daemon outright.
     The batch is requeued at the front, the worker backs off (capped
     exponential) and tries again; only [max_restarts] consecutive
     failures poison it.  A transient fault — an injected chaos error,
     a hook that raises once — costs a delay, not the repair domain. *)
  let backoff = t.cfg.restart_backoff in
  let rec loop ~failures =
    Mutex.lock t.lock;
    while Queue.is_empty t.pending && not t.stop do
      Condition.wait t.cond t.lock
    done;
    if t.stop then (
      Mutex.unlock t.lock;
      ())
    else begin
      let batch = drain_batch t in
      let base = t.serving in
      t.repairing <- true;
      Mutex.unlock t.lock;
      let outcome =
        let t0 = !Clock.now () in
        match
          (match t.cfg.repair_hook with Some hook -> hook () | None -> ());
          repair_batch t base batch
        with
        | result -> Ok (result, !Clock.now () -. t0)
        | exception exn -> Error (Printexc.to_string exn)
      in
      match outcome with
      | Ok ((epoch, sources, impact), wall_s) ->
          (* Samples taken on a graph that this batch folded past never
             get an epoch of their own: price them on their own graph,
             outside the lock, before the publish that [sync] waits
             for.  The samples on this epoch's graph read its ground
             truth, in the order they were taken. *)
          Mutex.lock t.lock;
          let orphans = pop_samples_locked t (fun s -> s.mutations < epoch.folded) in
          Mutex.unlock t.lock;
          let orphans =
            List.map (fun s -> (s, (Dijkstra.run s.graph s.u).Dijkstra.dist.(s.v))) orphans
          in
          Mutex.lock t.lock;
          List.iter (fun (s, d) -> record_stale t ~cost:s.cost d) orphans;
          List.iter
            (fun s -> record_stale t ~cost:s.cost (Apsp.distance epoch.apsp s.u s.v))
            (pop_samples_locked t (fun s -> s.mutations = epoch.folded));
          t.repairing <- false;
          t.serving <- epoch;
          Ring.push t.repair_s wall_s;
          Counters.incr t.counters "daemon.repairs";
          Counters.add t.counters "daemon.repair.sources" sources;
          write_event t
            [
              ("event", Jsonl.str "repair");
              ("epoch", Jsonl.int epoch.id);
              ("mutations", Jsonl.int (List.length batch));
              ("sources", Jsonl.int sources);
              ("levels", Jsonl.int (List.length impact.Dirty.levels));
              ("trees", Jsonl.int (List.length impact.Dirty.sparse_trees));
              ("covers", Jsonl.int (List.length impact.Dirty.dense_covers));
              ("wall_ms", Jsonl.float (1e3 *. wall_s));
            ];
          Condition.broadcast t.cond;
          Mutex.unlock t.lock;
          loop ~failures:0
      | Error msg ->
          let failures = failures + 1 in
          if Guard.Backoff.exhausted backoff ~restart:failures then begin
            (* the daemon survives its repair worker: queries keep being
               answered from the last-good epoch, sync reports the
               poisoning instead of hanging *)
            Mutex.lock t.lock;
            t.repairing <- false;
            t.poisoned <- Some msg;
            Counters.incr t.counters "daemon.repair.poisoned";
            Condition.broadcast t.cond;
            Mutex.unlock t.lock
          end
          else begin
            let delay_s = Guard.Backoff.delay_s backoff ~restart:failures in
            Mutex.lock t.lock;
            t.repairing <- false;
            requeue_front t batch;
            Counters.incr t.counters "daemon.repair.restarts";
            write_event t
              [
                ("event", Jsonl.str "repair_restart");
                ("restart", Jsonl.int failures);
                ("delay_ms", Jsonl.float (1e3 *. delay_s));
                ("error", Jsonl.str msg);
              ];
            Mutex.unlock t.lock;
            if delay_s > 0.0 then !Clock.sleep delay_s;
            loop ~failures
          end
    end
  in
  loop ~failures:0

(* ---- construction ---------------------------------------------------- *)

(* Recovery: newest valid snapshot (if any) replaces the base graph,
   then the checksummed journal suffix past the snapshot's recorded
   offset is replayed on top, a torn or corrupt tail is truncated away,
   and the journal is reopened in append mode with the sequence
   continuing — so the recovered daemon's live graph is exactly the
   acknowledged-mutation prefix that reached disk.  The serving epoch
   is rebuilt from scratch at id 0 (epoch ids are per-process; answers
   are identical modulo the id, which the equivalence tests pin). *)
let recover_state ~base ~journal_path ~snapshot_dir =
  let snap, skipped =
    match snapshot_dir with Some dir -> Snapshot.load_latest dir | None -> (None, [])
  in
  let graph0, offset, expect_seq, snap_records, snapshot_epoch =
    match snap with
    | Some (_, s) ->
        ( s.Gio.graph,
          s.Gio.journal_offset,
          Some (s.Gio.journal_records + 1),
          s.Gio.journal_records,
          Some s.Gio.epoch )
    | None -> (base, 0, None, 0, None)
  in
  let live, seq, truncated_bytes, truncated_line =
    match journal_path with
    | Some path when Sys.file_exists path ->
        let r = Journal.load ~offset ?expect_seq path in
        let size = (Unix.stat path).Unix.st_size in
        Journal.truncate_torn path r;
        let live = List.fold_left Graph.apply graph0 r.Journal.mutations in
        ( live,
          snap_records + r.Journal.read_records,
          size - r.Journal.valid_bytes,
          Option.map (fun (tr : Journal.truncation) -> tr.Journal.lineno) r.Journal.truncation )
    | _ -> (graph0, snap_records, 0, None)
  in
  let replayed = seq - snap_records in
  ( live,
    seq,
    { snapshot_epoch; snapshots_skipped = List.length skipped; replayed; truncated_bytes;
      truncated_line; recovery_s = 0.0 } )

let create ?(policy = Guard.Policy.serving) ?(chaos = Guard.Chaos.none) ?(staleness_every = 32)
    ?(fsync = Journal.Every) ?journal ?snapshot_dir ?(snapshot_every = 64) ?(recover = false)
    ?(restart_backoff = Guard.Backoff.repair) ?events ?repair_hook ?(cache = 0) ~params graph =
  if staleness_every < 0 then invalid_arg "Daemon.create: staleness_every must be >= 0";
  if cache < 0 then invalid_arg "Daemon.create: cache must be >= 0";
  if snapshot_every < 0 then invalid_arg "Daemon.create: snapshot_every must be >= 0";
  if snapshot_dir <> None && journal = None then
    invalid_arg "Daemon.create: snapshots need a journal (the checkpoint records its offset)";
  (* refused here, not at the first checkpoint: otherwise every
     mutation is acked while no checkpoint can ever be written *)
  (match snapshot_dir with
  | Some dir when Sys.file_exists dir && not (Sys.is_directory dir) ->
      invalid_arg (Printf.sprintf "Daemon.create: snapshot path %s is not a directory" dir)
  | _ -> ());
  let t0 = !Clock.now () in
  let live, seq, recovered =
    if recover then
      let live, seq, rec_ = recover_state ~base:graph ~journal_path:journal ~snapshot_dir in
      (live, seq, Some rec_)
    else (graph, 0, None)
  in
  let apsp = Apsp.compute_parallel live in
  let serving = build_epoch ~params ~id:0 ~folded:0 apsp in
  let recovered =
    (* recovery time includes the epoch rebuild: it is the full
       gap from process start to a serving daemon *)
    Option.map (fun r -> { r with recovery_s = !Clock.now () -. t0 }) recovered
  in
  let journal =
    Option.map (fun path -> Journal.create ~fsync ~append:recover ~seq path) journal
  in
  let events = Option.map Jsonl.Writer.create events in
  let t =
    {
      cfg =
        { params; policy; chaos; staleness_every; repair_hook; fsync; snapshot_every;
          restart_backoff };
      counters = Counters.create ();
      lock = Mutex.create ();
      cond = Condition.create ();
      pending = Queue.create ();
      serving;
      live;
      accepted = 0;
      repairing = false;
      poisoned = None;
      stop = false;
      quit = false;
      worker = None;
      guard = Guard.Chain.create policy;
      lineno = 0;
      qindex = 0;
      repair_s = Ring.create ~capacity:sample_window;
      stale_stretch = Ring.create ~capacity:sample_window;
      stale_queue = Queue.create ();
      stale_skipped = 0;
      journal;
      snapshot_dir;
      snapshots = 0;
      last_snapshot = None;
      recovered;
      events;
      rcache =
        (if cache = 0 then None
         else Some (Ttcache.create ~salt:(Graph.hash live) ~capacity:cache ()));
      pcache =
        (if cache = 0 then None
         else Some (Ttcache.create ~salt:(Graph.hash live + 1) ~capacity:cache ()));
    }
  in
  t.worker <- Some (Domain.spawn (fun () -> worker_loop t));
  t

let recovery t = t.recovered

(* Stop and join the worker, then end the journal with [finish] and
   close the event writer. *)
let shut_down t finish =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  Option.iter Domain.join t.worker;
  t.worker <- None;
  Option.iter finish t.journal;
  t.journal <- None;
  Option.iter Jsonl.Writer.close t.events;
  t.events <- None

let close t = shut_down t Journal.close

(* test seam for unclean death: the worker still stops (a domain cannot
   be killed mid-flight), but the journal is *abandoned* — buffered
   bytes are lost exactly as on SIGKILL.  What recovery finds on disk
   afterwards is what a real crash would have left. *)
let crash t = shut_down t Journal.abandon

(* ---- introspection ---------------------------------------------------- *)

(* the serving epoch and the backlog, read together under [lock] *)
let snapshot t =
  Mutex.lock t.lock;
  let ep = t.serving in
  let bl = backlog_locked t in
  Mutex.unlock t.lock;
  (ep, bl)

let epoch_id t = (fst (snapshot t)).id

let backlog t = snd (snapshot t)

let live_graph t = t.live

let counters t = t.counters

let quitting t = t.quit

let sync t =
  Mutex.lock t.lock;
  while t.poisoned = None && backlog_locked t > 0 do
    Condition.wait t.cond t.lock
  done;
  let r = match t.poisoned with None -> Ok t.serving.id | Some msg -> Error msg in
  Mutex.unlock t.lock;
  r

let poll_sync t =
  (* the non-blocking face of [sync], for transports that must not
     park a thread per waiting client: the socket server parks the
     *connection* and polls this each event-loop tick *)
  Mutex.lock t.lock;
  let r =
    match t.poisoned with
    | Some msg -> Some (Error msg)
    | None ->
        if backlog_locked t = 0 then Some (Ok t.serving.id) else None
  in
  Mutex.unlock t.lock;
  r

let emit_event t fields =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> write_event t fields)

(* ---- query path ------------------------------------------------------- *)

let measure_on ep u v =
  (* Churn can disconnect the serving graph, and the scheme's tree
     walks raise once the destination falls outside every structure
     that covers the source.  A long-running daemon answers that
     honestly as non-delivery instead of letting the exception kill
     the session. *)
  let r =
    try ep.scheme.Scheme.route u v
    with Not_found | Invalid_argument _ ->
      { Scheme.walk = [ u ]; delivered = false; phases_used = 0 }
  in
  let checked =
    Simulator.check_walk ep.graph ~src:u ~dst:v ~delivered:r.Scheme.delivered r.Scheme.walk
  in
  let delivered = Simulator.is_delivered checked.Simulator.outcome in
  let cost = checked.Simulator.checked_cost in
  {
    delivered;
    cost;
    hops = checked.Simulator.checked_hops;
    stretch = Simulator.stretch ~delivered ~cost (Apsp.distance ep.apsp u v);
    walk = r.Scheme.walk;
  }

(* Staleness: the serving epoch may lag the live (post-mutation) graph,
   so periodically re-validate an answered walk against the live graph
   and price it against the live shortest path.  A walk that crosses a
   removed edge counts as broken; a valid walk contributes its live
   stretch.  This is the measured cost of answering from the last-good
   epoch instead of blocking on repair (EXPERIMENTS.md methodology).

   No reply waits on a shortest-path run for it.  An answer from an
   epoch that holds every accepted mutation was priced on the live
   graph already: its stretch is the sample.  Otherwise the live
   distance is that of an epoch still to come, so the sample waits in
   [stale_queue] until the repair worker publishes the epoch holding
   its graph, or prices it at once if that epoch is already serving. *)
let sample_staleness t ep ~u ~v ~(ans : answer) =
  if ans.delivered then begin
    Counters.incr t.counters "daemon.stale.samples";
    if ep.folded = t.accepted then begin
      if Float.is_finite ans.stretch then Ring.push t.stale_stretch ans.stretch
    end
    else
      let checked =
        Simulator.check_walk t.live ~src:u ~dst:v ~delivered:ans.delivered ans.walk
      in
      if not (Simulator.is_delivered checked.Simulator.outcome) then
        Counters.incr t.counters "daemon.stale.broken"
      else begin
        let cost = checked.Simulator.checked_cost in
        Mutex.lock t.lock;
        if t.serving.folded = t.accepted then
          record_stale t ~cost (Apsp.distance t.serving.apsp u v)
        else if Queue.length t.stale_queue >= sample_window then
          t.stale_skipped <- t.stale_skipped + 1
        else
          Queue.push { u; v; cost; mutations = t.accepted; graph = t.live } t.stale_queue;
        Mutex.unlock t.lock
      end
  end

(* The guard chain of §8 as admission control: shed on the repair
   backlog, breaker, then chaos, retry and the per-query deadline.
   Chaos is keyed by the index of admitted queries, so a seeded session
   replays unchanged.  A daemon serves no batches: its batch deadline
   is the unbounded one. *)
let guarded t ~backlog f =
  let batch = Guard.Deadline.start () in
  match Guard.Chain.admit t.guard ~batch ~queued:backlog with
  | Some rejection -> Error rejection
  | None ->
      let q = t.qindex in
      t.qindex <- q + 1;
      Guard.Chain.run t.guard t.cfg.chaos ~batch ~q f

let cached_route t ep u v =
  match t.rcache with
  | None -> measure_on ep u v
  | Some tt ->
      Ttcache.memo tt ~gen:ep.id ~key:((u * Graph.n ep.graph) + v) (fun () -> measure_on ep u v)

let cached_path t ep u v =
  match t.pcache with
  | None -> Cr_oracle.Path_oracle.path ep.oracle u v
  | Some tt ->
      let cu, cv = (min u v, max u v) in
      let a =
        Ttcache.memo tt ~gen:ep.id ~key:((cu * Graph.n ep.graph) + cv) (fun () ->
            Cr_oracle.Path_oracle.path ep.oracle cu cv)
      in
      if u = cu then a
      else
        (* Path_oracle.path derives the (v, u) walk as the reverse of
           the canonical (min, max) walk, with est/via/levels computed
           on the canonical pair — so this reversal reproduces the
           direct answer byte-for-byte *)
        Option.map
          (fun (ans : Cr_oracle.Path_oracle.answer) ->
            { ans with Cr_oracle.Path_oracle.walk = List.rev ans.Cr_oracle.Path_oracle.walk })
          a

(* The frame every query command shares: count it, snapshot the
   serving epoch, range-check the endpoints, compute the answer through
   the guard chain and render it — or the rejection, in the vocabulary
   of the batch engine. *)
let answer_query t name u v compute render =
  Counters.incr t.counters "daemon.queries";
  let ep, bl = snapshot t in
  let n = Graph.n ep.graph in
  if u < 0 || u >= n || v < 0 || v >= n then
    Printf.sprintf "err %s %d %d: node out of range [0, %d)" name u v n
  else
    match guarded t ~backlog:bl (fun () -> compute t ep u v) with
    | Error rej ->
        Counters.incr t.counters (Guard.Rejection.counter rej);
        Printf.sprintf "err %s %d %d rejected=%s epoch=%d" name u v
          (Guard.Rejection.to_string rej) ep.id
    | Ok a -> render t ep u v a

let render_route t ep u v ans =
  Counters.incr t.counters "daemon.routes";
  if t.cfg.staleness_every > 0 && t.qindex mod t.cfg.staleness_every = 0 then
    sample_staleness t ep ~u ~v ~ans;
  Printf.sprintf "ok route %d %d delivered=%b hops=%d cost=%.6g stretch=%.6g epoch=%d" u v
    ans.delivered ans.hops ans.cost ans.stretch ep.id

let distance_on _ ep u v = Apsp.distance ep.apsp u v

let render_dist t ep u v d =
  Counters.incr t.counters "daemon.dists";
  Printf.sprintf "ok dist %d %d %.17g epoch=%d" u v d ep.id

let render_path t ep u v a =
  Counters.incr t.counters "daemon.paths";
  match a with
  | None -> Printf.sprintf "ok path %d %d unreachable epoch=%d" u v ep.id
  | Some a ->
      let walk = String.concat "-" (List.map string_of_int a.Cr_oracle.Path_oracle.walk) in
      Printf.sprintf "ok path %d %d est=%.17g hops=%d via=%d walk=%s epoch=%d" u v
        a.Cr_oracle.Path_oracle.est
        (List.length a.Cr_oracle.Path_oracle.walk - 1)
        a.Cr_oracle.Path_oracle.via walk ep.id

(* ---- mutation path ---------------------------------------------------- *)

let normalized_floor = 1.0 -. 1e-9

let take_snapshot t ~dir ~writer =
  let snap =
    {
      Gio.epoch = epoch_id t;
      journal_records = Journal.records writer;
      journal_offset = Journal.bytes writer;
      graph = t.live;
    }
  in
  (* a failed checkpoint must not kill serving — the previous
     checkpoint and the journal still stand — but it must not be silent
     either: counted for [stats] and warned about on stderr, as a
     failed journal fsync is *)
  let failed reason =
    Counters.incr t.counters "daemon.snapshot.failures";
    Printf.eprintf
      "crt: snapshot %s: checkpoint failed: %s (the previous checkpoint and the journal still \
       stand)\n%!"
      dir reason
  in
  match Snapshot.write ~dir snap with
  | _path ->
      t.snapshots <- t.snapshots + 1;
      t.last_snapshot <- Some (snap.Gio.epoch, !Clock.now ())
  | exception Sys_error msg -> failed msg
  | exception Unix.Unix_error (err, fn, _) -> failed (fn ^ ": " ^ Unix.error_message err)

let accept_mutation t mu =
  Counters.incr t.counters "daemon.mutations";
  let weight_ok =
    (* the serving scheme requires a normalized graph (min edge weight
       1), so churn must not sneak weights below it *)
    match mu with
    | Graph.Set_weight (_, _, w) | Graph.Link_up (_, _, w) -> w >= normalized_floor
    | Graph.Link_down _ | Graph.Node_down _ | Graph.Node_up _ -> true
  in
  if not weight_ok then begin
    Counters.incr t.counters "daemon.mutations.rejected";
    Printf.sprintf "err mutate %s: weight must be >= 1 (the scheme serves a normalized graph)"
      (Graph.mutation_to_string mu)
  end
  else
    match Graph.apply t.live mu with
    | live ->
        t.live <- live;
        (match t.journal with
        | Some w ->
            (* durability point: [append] returns only once the record
               is flushed per the fsync policy, so the [ok] below never
               acknowledges a mutation a crash could lose *)
            Journal.append w mu;
            (match t.snapshot_dir with
            | Some dir
              when t.cfg.snapshot_every > 0 && Journal.records w mod t.cfg.snapshot_every = 0
              ->
                take_snapshot t ~dir ~writer:w
            | _ -> ())
        | None -> ());
        Mutex.lock t.lock;
        Queue.push mu t.pending;
        t.accepted <- t.accepted + 1;
        let bl = backlog_locked t in
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        Printf.sprintf "ok mutate %s backlog=%d" (Graph.mutation_to_string mu) bl
    | exception Invalid_argument msg ->
        Counters.incr t.counters "daemon.mutations.rejected";
        Printf.sprintf "err mutate %s: %s" (Graph.mutation_to_string mu) msg

(* ---- stats ------------------------------------------------------------ *)

let summary = function [] -> Stats.empty_summary | xs -> Stats.summarize (Array.of_list xs)

let cache_sum t f =
  let one = function None -> 0 | Some tt -> f (Ttcache.stats tt) in
  one t.rcache + one t.pcache

let stats_json t =
  (* the staleness window, its queue and the epoch are read together:
     the repair worker moves samples from one to the other as it
     publishes *)
  Mutex.lock t.lock;
  let ep = t.serving and bl = backlog_locked t in
  let poisoned = t.poisoned and repairing = t.repairing in
  let stale = Ring.to_list t.stale_stretch in
  let stale_pending = Queue.length t.stale_queue and stale_skipped = t.stale_skipped in
  Mutex.unlock t.lock;
  let rs = summary (Ring.to_list t.repair_s) and ss = summary stale in
  let hits = cache_sum t (fun s -> s.Ttcache.hits) in
  let misses = cache_sum t (fun s -> s.Ttcache.misses) in
  let c name = Counters.get t.counters name in
  Jsonl.obj
    [
      ("epoch", Jsonl.int ep.id);
      ("backlog", Jsonl.int bl);
      ("repairing", Jsonl.bool repairing);
      ("poisoned", match poisoned with None -> "null" | Some m -> Jsonl.str m);
      ("n", Jsonl.int (Graph.n ep.graph));
      ("m_epoch", Jsonl.int (Graph.m ep.graph));
      ("m_live", Jsonl.int (Graph.m t.live));
      ("queries", Jsonl.int (c "daemon.queries"));
      ("routes", Jsonl.int (c "daemon.routes"));
      ("dists", Jsonl.int (c "daemon.dists"));
      ("paths", Jsonl.int (c "daemon.paths"));
      ("oracle_entries", Jsonl.int (Cr_oracle.Path_oracle.size_entries ep.oracle));
      ( "cache",
        Jsonl.int (match t.rcache with Some tt -> Ttcache.capacity tt | None -> 0) );
      ("cache_hits", Jsonl.int hits);
      ("cache_misses", Jsonl.int misses);
      ("cache_aged", Jsonl.int (cache_sum t (fun s -> s.Ttcache.aged)));
      ("cache_hit_rate", Jsonl.float (Stats.ratio hits (hits + misses)));
      ("mutations", Jsonl.int (c "daemon.mutations"));
      ("mutations_rejected", Jsonl.int (c "daemon.mutations.rejected"));
      ("parse_errors", Jsonl.int (c "daemon.parse_errors"));
      ("repairs", Jsonl.int (c "daemon.repairs"));
      ("repair_sources", Jsonl.int (c "daemon.repair.sources"));
      ("repair_ms_p50", Jsonl.float (1e3 *. rs.Stats.p50));
      ("repair_ms_p95", Jsonl.float (1e3 *. rs.Stats.p95));
      ("repair_ms_p99", Jsonl.float (1e3 *. rs.Stats.p99));
      ("timed_out", Jsonl.int (c "guard.timeouts"));
      ("shed", Jsonl.int (c "guard.sheds"));
      ("breaker_open", Jsonl.int (c "guard.breaker_opens"));
      ("worker_lost", Jsonl.int (c "guard.worker_lost"));
      ("retries", Jsonl.int (Guard.Chain.retries t.guard));
      ("stale_samples", Jsonl.int (c "daemon.stale.samples"));
      ("stale_broken", Jsonl.int (c "daemon.stale.broken"));
      ("stale_stretch_p50", Jsonl.float ss.Stats.p50);
      ("stale_stretch_p95", Jsonl.float ss.Stats.p95);
      ("stale_stretch_p99", Jsonl.float ss.Stats.p99);
      ("stale_pending", Jsonl.int stale_pending);
      ("stale_skipped", Jsonl.int stale_skipped);
      (* durability state: what an operator needs to judge what a crash
         right now would cost (DESIGN.md §10) *)
      ( "fsync",
        match t.journal with
        | None -> "null"
        | Some _ -> Jsonl.str (Journal.fsync_to_string t.cfg.fsync) );
      ("journal_bytes", Jsonl.int (match t.journal with Some w -> Journal.bytes w | None -> 0));
      ( "fsync_failures",
        Jsonl.int (match t.journal with Some w -> Journal.fsync_failures w | None -> 0) );
      ( "journal_records",
        Jsonl.int (match t.journal with Some w -> Journal.records w | None -> 0) );
      ("snapshots", Jsonl.int t.snapshots);
      ("snapshot_failures", Jsonl.int (c "daemon.snapshot.failures"));
      ( "last_snapshot_epoch",
        match t.last_snapshot with Some (e, _) -> Jsonl.int e | None -> "null" );
      ( "last_snapshot_age_s",
        match t.last_snapshot with
        | Some (_, at) -> Jsonl.float (!Clock.now () -. at)
        | None -> "null" );
      ("repair_restarts", Jsonl.int (c "daemon.repair.restarts"));
      ("recovered", Jsonl.bool (t.recovered <> None));
      ( "recovery_snapshot_epoch",
        match t.recovered with Some { snapshot_epoch = Some e; _ } -> Jsonl.int e | _ -> "null"
      );
      ("recovery_replayed", Jsonl.int (match t.recovered with Some r -> r.replayed | None -> 0));
      ( "recovery_truncated_bytes",
        Jsonl.int (match t.recovered with Some r -> r.truncated_bytes | None -> 0) );
      ("recovery_s", match t.recovered with Some r -> Jsonl.float r.recovery_s | None -> "null");
    ]

(* ---- the protocol surface --------------------------------------------- *)

let sync_response = function
  | Ok id -> Printf.sprintf "ok sync epoch=%d backlog=0" id
  | Error msg -> Printf.sprintf "err sync repair poisoned: %s" msg

(* [dispatch] is the transport-independent step after the parse: the
   line number was the caller's, so every socket connection numbers its
   own session from 1, and a [quit] is reported back instead of
   flipping global state — one client quitting must not take down its
   neighbors. *)
let dispatch t = function
  | Ok None -> ([], false)
  | Error msg ->
      Counters.incr t.counters "daemon.parse_errors";
      ([ "err " ^ msg ], false)
  | Ok (Some cmd) -> (
      match cmd with
      | Protocol.Route (u, v) -> ([ answer_query t "route" u v cached_route render_route ], false)
      | Protocol.Dist (u, v) -> ([ answer_query t "dist" u v distance_on render_dist ], false)
      | Protocol.Path (u, v) -> ([ answer_query t "path" u v cached_path render_path ], false)
      | Protocol.Mutate mu -> ([ accept_mutation t mu ], false)
      | Protocol.Sync -> ([ sync_response (sync t) ], false)
      | Protocol.Stats -> ([ "ok stats " ^ stats_json t ], false)
      | Protocol.Epoch ->
          let ep, bl = snapshot t in
          ([ Printf.sprintf "ok epoch %d backlog=%d" ep.id bl ], false)
      | Protocol.Help ->
          ( List.map (fun (spell, doc) -> Printf.sprintf "ok help %s -- %s" spell doc)
              Protocol.grammar,
            false )
      | Protocol.Quit -> ([ "ok bye" ], true))

let handle_line t ~lineno line = dispatch t (Protocol.parse ~lineno line)

let handle t line =
  t.lineno <- t.lineno + 1;
  let responses, quit = handle_line t ~lineno:t.lineno line in
  if quit then t.quit <- true;
  responses

let serve_loop t ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        let responses = handle t line in
        List.iter
          (fun r ->
            output_string oc r;
            output_char oc '\n')
          responses;
        flush oc;
        if not t.quit then loop ()
  in
  loop ()
