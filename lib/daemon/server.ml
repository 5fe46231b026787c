module Jsonl = Cr_util.Jsonl
module Rng = Cr_util.Rng

(* One select-driven event loop, one daemon.  The loop parses each
   request line once — it must spot a [sync] to park — and hands the
   result to [Daemon.dispatch], which is single-caller by design (query
   indices and guard state are plain mutable fields), so the transport
   must serialize every call anyway.  An event loop does that for free
   and buys the robustness semantics a thread per connection cannot
   give cheaply: a bounded write queue per client (backpressure = stop
   selecting that fd for read), deterministic fault injection at the
   write edge, and a drain that can see every in-flight response at
   once. *)

(* ---- addresses -------------------------------------------------------- *)

type addr = Tcp of string * int | Unix_path of string

let addr_of_string s =
  let fail () =
    Error (Printf.sprintf "bad listen address %S (expected [HOST:]PORT or unix:PATH)" s)
  in
  if String.starts_with ~prefix:"unix:" s then
    let p = String.sub s 5 (String.length s - 5) in
    if p = "" then Error "bad listen address: empty unix socket path" else Ok (Unix_path p)
  else
    let host, port_s =
      match String.rindex_opt s ':' with
      | None -> ("127.0.0.1", s)
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match int_of_string_opt port_s with
    | Some p when p >= 0 && p <= 65535 && host <> "" -> Ok (Tcp (host, p))
    | _ -> fail ()

let addr_to_string = function
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p
  | Unix_path p -> "unix:" ^ p

(* ---- deterministic network chaos -------------------------------------- *)

type netchaos = {
  nlabel : string;
  nseed : int;
  delay_rate : float;
  delay_s : float;
  short_rate : float;
  drop_rate : float;
}

let no_netchaos =
  { nlabel = "none"; nseed = 0; delay_rate = 0.0; delay_s = 0.0; short_rate = 0.0;
    drop_rate = 0.0 }

let netchaos ?(label = "custom") ~seed ?(delay_rate = 0.0) ?(delay_s = 0.01)
    ?(short_rate = 0.0) ?(drop_rate = 0.0) () =
  { nlabel = label; nseed = seed; delay_rate; delay_s; short_rate; drop_rate }

let netchaos_of_string ~seed = function
  | "none" -> Ok no_netchaos
  | "slow" -> Ok (netchaos ~label:"slow" ~seed ~delay_rate:0.25 ~delay_s:0.02 ())
  | "torn" -> Ok (netchaos ~label:"torn" ~seed ~short_rate:0.5 ())
  | "rude" -> Ok (netchaos ~label:"rude" ~seed ~drop_rate:0.1 ())
  | "net" ->
      Ok
        (netchaos ~label:"net" ~seed ~delay_rate:0.2 ~delay_s:0.01 ~short_rate:0.3
           ~drop_rate:0.05 ())
  | s -> Error (Printf.sprintf "unknown netchaos preset %S (try none, slow, torn, rude or net)" s)

let netchaos_label nc = nc.nlabel

(* every decision is a fresh splitmix64 stream keyed by (seed, conn,
   req, salt) — the same derivation idiom as Guard.Chaos.qrng — so a
   run is replayable from its netchaos seed alone *)
let decision nc ~conn ~req ~salt =
  Rng.create ((nc.nseed * 1_000_003) + (conn * 65_537) + (req * 8_191) + salt)

let chaos_delay_s nc ~conn ~req =
  if nc.delay_rate > 0.0 && Rng.bernoulli (decision nc ~conn ~req ~salt:1) nc.delay_rate then
    nc.delay_s
  else 0.0

let chaos_chunk nc ~conn ~req =
  if nc.short_rate > 0.0 && Rng.bernoulli (decision nc ~conn ~req ~salt:2) nc.short_rate then
    Some (1 + Rng.int (decision nc ~conn ~req ~salt:3) 7)
  else None

let chaos_drops nc ~conn ~req =
  nc.drop_rate > 0.0 && Rng.bernoulli (decision nc ~conn ~req ~salt:4) nc.drop_rate

(* ---- configuration ----------------------------------------------------- *)

type config = {
  max_conns : int;
  max_line : int;
  idle_timeout_s : float;
  write_queue_max : int;
  drain_s : float;
  nc : netchaos;
}

let default_config =
  { max_conns = 64; max_line = 4096; idle_timeout_s = 30.0; write_queue_max = 256 * 1024;
    drain_s = 5.0; nc = no_netchaos }

type outcome = Served | Shed | Timed_out | Disconnected

let outcome_to_string = function
  | Served -> "served"
  | Shed -> "shed"
  | Timed_out -> "timed-out"
  | Disconnected -> "disconnected"

type stats = {
  mutable conns_total : int;
  mutable served : int;
  mutable shed : int;
  mutable timed_out : int;
  mutable disconnected : int;
  mutable lines : int;
  mutable responses : int;
  mutable oversized : int;
  mutable torn : int;
  mutable chaos_delays : int;
  mutable chaos_shorts : int;
  mutable chaos_drops : int;
  mutable drained : bool;
}

(* ---- connections ------------------------------------------------------- *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;  (* its first [rlen] bytes: read, not yet consumed as lines *)
  mutable rlen : int;
  wq : string Queue.t;  (* response bytes not yet written *)
  mutable wq_bytes : int;
  mutable whead_off : int;  (* written prefix of the queue head *)
  mutable lineno : int;  (* per-session protocol line number *)
  mutable reqs : int;  (* request index: the netchaos coordinate *)
  mutable sync_req : int;  (* request index of the parked sync, for its chaos decisions *)
  mutable last_activity : float;
  mutable no_write_before : float;  (* netchaos delay *)
  mutable chunk : int option;  (* netchaos short-write cap while the queue drains *)
  mutable drop_at : int option;  (* netchaos: cut once this many bytes were written *)
  mutable written : int;  (* total response bytes written *)
  mutable waiting_sync : bool;  (* parked on Daemon.poll_sync *)
  mutable ending : outcome option;  (* stop reading; close with this once the queue drains *)
  mutable end_deadline : float;  (* force-close point once [ending] is set *)
  mutable dead : bool;  (* closed and counted: every path is idempotent past this *)
}

type t = {
  daemon : Daemon.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : addr;
  stats : stats;
  mutable conns : conn list;
  mutable next_cid : int;
  stop_flag : bool Atomic.t;
  mutable draining : bool;
  mutable drain_deadline : float;
  mutable listen_open : bool;
}

(* idle, drain and netchaos deadlines run on the monotonic process
   clock: a wall-clock step must not expire every idle connection *)
let now () = !Cr_obs.Clock.now ()

let tick_s = 0.02  (* select granularity: deadline/chaos timing resolution *)

let read_chunk = 4096  (* bytes asked of one read *)

let create ?(config = default_config) daemon address =
  if config.max_conns < 1 then invalid_arg "Server.create: max_conns must be >= 1";
  if config.max_line < 16 then invalid_arg "Server.create: max_line must be >= 16";
  if config.write_queue_max < 1 then invalid_arg "Server.create: write_queue_max must be >= 1";
  if config.drain_s < 0.0 then invalid_arg "Server.create: drain_s must be >= 0";
  (* a peer closing mid-write must surface as EPIPE on the write, never
     as a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ());
  let fd, bound =
    match address with
    | Unix_path p ->
        (try Unix.unlink p with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.bind fd (Unix.ADDR_UNIX p)
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        (fd, address)
    | Tcp (host, port) ->
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found ->
              raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "gethostbyname", host)))
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (try Unix.bind fd (Unix.ADDR_INET (ip, port))
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        let port =
          match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
        in
        (fd, Tcp (host, port))
  in
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  {
    daemon;
    cfg = config;
    listen_fd = fd;
    bound;
    stats =
      { conns_total = 0; served = 0; shed = 0; timed_out = 0; disconnected = 0; lines = 0;
        responses = 0; oversized = 0; torn = 0; chaos_delays = 0; chaos_shorts = 0;
        chaos_drops = 0; drained = false };
    conns = [];
    next_cid = 0;
    stop_flag = Atomic.make false;
    draining = false;
    drain_deadline = infinity;
    listen_open = true;
  }

let addr t = t.bound

let stats t = t.stats

(* the fields both [stats_json] and the drain-time [server_stats]
   event render *)
let stats_fields t =
  let s = t.stats in
  [
    ("conns", Jsonl.int s.conns_total);
    ("served", Jsonl.int s.served);
    ("shed", Jsonl.int s.shed);
    ("timed_out", Jsonl.int s.timed_out);
    ("disconnected", Jsonl.int s.disconnected);
    ("lines", Jsonl.int s.lines);
    ("responses", Jsonl.int s.responses);
    ("oversized", Jsonl.int s.oversized);
    ("torn", Jsonl.int s.torn);
    ("netchaos", Jsonl.str t.cfg.nc.nlabel);
    ("chaos_delays", Jsonl.int s.chaos_delays);
    ("chaos_shorts", Jsonl.int s.chaos_shorts);
    ("chaos_drops", Jsonl.int s.chaos_drops);
  ]

let stats_json t = Jsonl.obj (stats_fields t @ [ ("drained", Jsonl.bool t.stats.drained) ])

let stop t = Atomic.set t.stop_flag true

(* ---- connection lifecycle --------------------------------------------- *)

let conn_event t ~cid ~lines ~bytes_out outcome =
  Daemon.emit_event t.daemon
    [
      ("event", Jsonl.str "conn");
      ("conn", Jsonl.int cid);
      ("outcome", Jsonl.str (outcome_to_string outcome));
      ("lines", Jsonl.int lines);
      ("bytes_out", Jsonl.int bytes_out);
    ]

let count_outcome t = function
  | Served -> t.stats.served <- t.stats.served + 1
  | Shed -> t.stats.shed <- t.stats.shed + 1
  | Timed_out -> t.stats.timed_out <- t.stats.timed_out + 1
  | Disconnected -> t.stats.disconnected <- t.stats.disconnected + 1

let close_conn t c outcome =
  if not c.dead then begin
    c.dead <- true;
    count_outcome t outcome;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c'.cid <> c.cid) t.conns;
    conn_event t ~cid:c.cid ~lines:c.lineno ~bytes_out:c.written outcome
  end

let enqueue t c s =
  t.stats.responses <- t.stats.responses + 1;
  Queue.push s c.wq;
  c.wq_bytes <- c.wq_bytes + String.length s

(* the chaos decisions for request [req], applied once its response
   bytes (possibly none) are queued *)
let apply_netchaos t c ~req =
  let nc = t.cfg.nc in
  let d = chaos_delay_s nc ~conn:c.cid ~req in
  if d > 0.0 then begin
    t.stats.chaos_delays <- t.stats.chaos_delays + 1;
    c.no_write_before <- Float.max c.no_write_before (now () +. d)
  end;
  (match chaos_chunk nc ~conn:c.cid ~req with
  | Some k ->
      t.stats.chaos_shorts <- t.stats.chaos_shorts + 1;
      c.chunk <- Some k
  | None -> ());
  if chaos_drops nc ~conn:c.cid ~req && c.drop_at = None then begin
    t.stats.chaos_drops <- t.stats.chaos_drops + 1;
    (* cut after roughly half of what is now queued goes out: a
       mid-request disconnect, not a polite one *)
    c.drop_at <- Some (c.written + ((c.wq_bytes + 1) / 2))
  end

let finish t c outcome =
  if c.ending = None then begin
    c.ending <- Some outcome;
    c.end_deadline <- now () +. t.cfg.drain_s
  end

let handle_one t c line =
  c.lineno <- c.lineno + 1;
  c.reqs <- c.reqs + 1;
  t.stats.lines <- t.stats.lines + 1;
  let req = c.reqs in
  match Protocol.parse ~lineno:c.lineno line with
  | Ok (Some Protocol.Sync) when Daemon.poll_sync t.daemon = None ->
      (* a sync with repair still in flight parks the connection instead
         of blocking the loop; everyone else keeps being served *)
      c.waiting_sync <- true;
      c.sync_req <- req
  | parsed ->
      let responses, quit = Daemon.dispatch t.daemon parsed in
      List.iter (fun r -> enqueue t c (r ^ "\n")) responses;
      apply_netchaos t c ~req;
      if quit then finish t c Served

(* bound the request size: an endless line must not grow the buffer
   without limit, and the refusal is structured *)
let refuse_long_line t c =
  t.stats.oversized <- t.stats.oversized + 1;
  c.lineno <- c.lineno + 1;
  enqueue t c (Printf.sprintf "err line %d too long max=%d\n" c.lineno t.cfg.max_line);
  finish t c Disconnected

(* the first newline in [b] at or after [i] and before [stop], or -1 *)
let rec newline b i stop =
  if i >= stop then -1 else if Bytes.get b i = '\n' then i else newline b (i + 1) stop

(* Handles the buffered complete lines until the session parks on a
   [sync] or ends, reading them in place by offset; what is left, a
   partial line or lines behind the park, moves to the front once.  A
   refused line consumes the whole buffer. *)
let process_lines t c =
  let rec go pos =
    if c.dead || c.waiting_sync || c.ending <> None then pos
    else
      let nl = newline c.rbuf pos c.rlen in
      if nl < 0 then
        if c.rlen - pos > t.cfg.max_line then begin
          refuse_long_line t c;
          c.rlen
        end
        else pos
      else
        (* tolerate CRLF clients (telnet, nc -C) *)
        let stop = if nl > pos && Bytes.get c.rbuf (nl - 1) = '\r' then nl - 1 else nl in
        if stop - pos > t.cfg.max_line then begin
          refuse_long_line t c;
          c.rlen
        end
        else begin
          handle_one t c (Bytes.sub_string c.rbuf pos (stop - pos));
          go (nl + 1)
        end
  in
  let pos = go 0 in
  if pos > 0 then begin
    Bytes.blit c.rbuf pos c.rbuf 0 (c.rlen - pos);
    c.rlen <- c.rlen - pos
  end

(* ---- I/O edges --------------------------------------------------------- *)

let best_effort_write fd s =
  match Unix.write_substring fd s 0 (String.length s) with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let service_accept t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EMFILE | Unix.ENFILE), _, _) ->
      (* transient accept failures must not take the loop down *)
      ()
  | fd, _peer ->
      Unix.set_nonblock fd;
      t.stats.conns_total <- t.stats.conns_total + 1;
      let cid = t.next_cid in
      t.next_cid <- cid + 1;
      let active = List.length t.conns in
      (* admission control over connection depth: the active set is
         the queue, the cap is the policy *)
      if t.draining || active >= t.cfg.max_conns then begin
        t.stats.shed <- t.stats.shed + 1;
        best_effort_write fd
          (if t.draining then "err busy draining\n"
           else Printf.sprintf "err busy conns=%d max=%d\n" active t.cfg.max_conns);
        (try Unix.close fd with Unix.Unix_error _ -> ());
        conn_event t ~cid ~lines:0 ~bytes_out:0 Shed
      end
      else
        let c =
          {
            cid;
            fd;
            rbuf = Bytes.create (2 * read_chunk);
            rlen = 0;
            wq = Queue.create ();
            wq_bytes = 0;
            whead_off = 0;
            lineno = 0;
            reqs = 0;
            sync_req = 0;
            last_activity = now ();
            no_write_before = 0.0;
            chunk = None;
            drop_at = None;
            written = 0;
            waiting_sync = false;
            ending = None;
            end_deadline = infinity;
            dead = false;
          }
        in
        t.conns <- c :: t.conns

let service_read t c =
  if not c.dead then begin
    if Bytes.length c.rbuf - c.rlen < read_chunk then begin
      (* less than one read's room: only a long partial line leaves
         that, and [process_lines] refuses one past [max_line], which
         bounds the growth *)
      let b = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 b 0 c.rlen;
      c.rbuf <- b
    end;
    match Unix.read c.fd c.rbuf c.rlen read_chunk with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t c Disconnected
    | 0 ->
        if c.rlen > 0 then begin
          (* the client died mid-line: torn input.  The partial line is
             dropped, queued responses still flush, the outcome is
             honest *)
          t.stats.torn <- t.stats.torn + 1;
          c.rlen <- 0;
          finish t c Disconnected
        end
        else finish t c Served
    | n ->
        c.last_activity <- now ();
        c.rlen <- c.rlen + n;
        process_lines t c
  end

let service_write t c tnow =
  if (not c.dead) && c.wq_bytes > 0 && tnow >= c.no_write_before then begin
    let head = Queue.peek c.wq in
    let avail = String.length head - c.whead_off in
    let cap = match c.chunk with Some k -> min k avail | None -> avail in
    match Unix.write_substring c.fd head c.whead_off cap with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t c Disconnected
    | n ->
        c.whead_off <- c.whead_off + n;
        c.written <- c.written + n;
        c.wq_bytes <- c.wq_bytes - n;
        if c.whead_off >= String.length head then begin
          ignore (Queue.pop c.wq);
          c.whead_off <- 0
        end;
        if c.wq_bytes = 0 then c.chunk <- None
        else if c.chunk <> None then
          (* keep the dribble torn over time, not just split once *)
          c.no_write_before <- tnow +. (tick_s /. 4.0)
  end

(* Writes the queue in the loop pass that filled it, until it is empty
   or the socket refuses more; the rest waits for [select].  A
   connection under a netchaos decision (a delay not yet passed, a
   dribble, a pending cut) is left to the ticks, which play that
   decision out as they always have. *)
let rec flush_now t c =
  if (not c.dead) && c.wq_bytes > 0 && c.chunk = None && c.drop_at = None then begin
    let tnow = now () in
    if tnow >= c.no_write_before then begin
      let before = c.wq_bytes in
      service_write t c tnow;
      if c.wq_bytes < before then flush_now t c
    end
  end

let poll_parked_sync t c =
  if (not c.dead) && c.waiting_sync then
    match Daemon.poll_sync t.daemon with
    | None -> ()
    | Some r ->
        c.waiting_sync <- false;
        enqueue t c (Daemon.sync_response r ^ "\n");
        apply_netchaos t c ~req:c.sync_req;
        process_lines t c;
        flush_now t c

(* ---- deadlines, drains, sweeps ---------------------------------------- *)

let sweep t c tnow =
  if not c.dead then begin
    (* netchaos mid-request disconnect *)
    (match c.drop_at with
    | Some k when c.written >= k -> close_conn t c Disconnected
    | _ -> ());
    if not c.dead then begin
      (* slow-loris / idle deadline, only while the session is live *)
      if
        t.cfg.idle_timeout_s > 0.0 && c.ending = None && (not c.waiting_sync)
        && (not t.draining)
        && tnow -. c.last_activity > t.cfg.idle_timeout_s
      then begin
        enqueue t c (Printf.sprintf "err idle timeout=%gs\n" t.cfg.idle_timeout_s);
        finish t c Timed_out
      end;
      (* a finished session closes once its responses are out *)
      (match c.ending with
      | Some o when c.wq_bytes = 0 -> close_conn t c o
      | Some o when tnow >= c.end_deadline ->
          (* could not flush in time: a stuck reader forfeits the rest *)
          close_conn t c (if o = Disconnected then Disconnected else Timed_out)
      | _ -> ());
      if (not c.dead) && t.draining then
        if c.wq_bytes = 0 && (not c.waiting_sync) && c.ending = None then
          (* nothing in flight: a draining server closes idle sessions *)
          close_conn t c Served
        else if tnow >= t.drain_deadline then
          close_conn t c (if c.ending = Some Disconnected then Disconnected else Timed_out)
    end
  end

let begin_drain t tnow =
  if not t.draining then begin
    t.draining <- true;
    t.stats.drained <- true;
    t.drain_deadline <- tnow +. t.cfg.drain_s;
    if t.listen_open then begin
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      (match t.bound with
      | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | Tcp _ -> ());
      t.listen_open <- false
    end;
    Daemon.emit_event t.daemon
      [
        ("event", Jsonl.str "drain");
        ("conns_in_flight", Jsonl.int (List.length t.conns));
        ("deadline_s", Jsonl.float t.cfg.drain_s);
      ]
  end

(* ---- the loop ---------------------------------------------------------- *)

let run t =
  let rec tick () =
    let tnow = now () in
    if Atomic.get t.stop_flag then begin_drain t tnow;
    List.iter (fun c -> poll_parked_sync t c) t.conns;
    List.iter (fun c -> sweep t c tnow) t.conns;
    if t.draining && t.conns = [] then
      Daemon.emit_event t.daemon (("event", Jsonl.str "server_stats") :: stats_fields t)
    else begin
      let readers =
        (* backpressure: a connection whose write queue is over the
           bound is simply not read from until it drains — its own
           flood stalls only itself *)
        List.filter_map
          (fun c ->
            if
              (not c.dead) && c.ending = None && (not c.waiting_sync) && (not t.draining)
              && c.wq_bytes <= t.cfg.write_queue_max
            then Some c.fd
            else None)
          t.conns
      in
      let readers = if t.listen_open then t.listen_fd :: readers else readers in
      let writers =
        List.filter_map
          (fun c ->
            if (not c.dead) && c.wq_bytes > 0 && tnow >= c.no_write_before then Some c.fd
            else None)
          t.conns
      in
      match Unix.select readers writers [] tick_s with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> tick ()
      | rd, wr, _ ->
          if t.listen_open && List.memq t.listen_fd rd then service_accept t;
          let snapshot = t.conns in
          List.iter (fun c -> if List.memq c.fd wr then service_write t c (now ())) snapshot;
          List.iter
            (fun c ->
              if List.memq c.fd rd then begin
                service_read t c;
                flush_now t c
              end)
            snapshot;
          tick ()
    end
  in
  tick ();
  if t.listen_open then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    t.listen_open <- false
  end
