(** Fault-tolerant multi-client socket front end for the daemon.

    A single-threaded [Unix.select] event loop multiplexes many
    concurrent connections onto one {!Daemon.t} — which is exactly what
    makes it safe: the daemon's dispatch is designed for one caller, and
    the event loop {e is} that caller.  Per-connection semantics:

    - {b admission}: beyond [max_conns] active connections a new client
      is shed with a structured [err busy] line and closed — accepted
      work is never silently dropped, refused work is never accepted;
    - {b sessions}: each connection numbers its own protocol lines from
      1 and owns its [quit] (closing one session never affects another);
    - {b slow-loris defense}: a connection idle longer than
      [idle_timeout_s] is told [err idle] and closed;
    - {b backpressure}: a response is written in the loop pass that
      read its request; what the socket refuses, or netchaos holds
      back, queues per connection, bounded by [write_queue_max] bytes —
      a slow reader stops being read from (stalling only itself) until
      its queue drains; the accept loop and other clients never block
      on it;
    - {b torn input}: a client dying mid-line is closed as
      [disconnected]; the partial line is discarded, the daemon and the
      other sessions are untouched;
    - {b request bound}: a line longer than [max_line] bytes gets a
      structured [err line N too long] and the connection is closed;
    - {b sync}: a [sync] command parks the connection
      ({!Daemon.poll_sync} each tick) instead of blocking the loop;
    - {b drain}: {!stop} (wired to SIGTERM/SIGINT by [crt daemon])
      closes the listener, stops reading, finishes in-flight responses
      up to [drain_s] seconds, then force-closes stragglers as
      [timed-out] and returns from {!run}.

    Every connection ends in exactly one {!outcome}, and the outcome
    counters in {!stats} reconcile exactly against the number of
    accepted connections — the invariant the tests pin.

    Network fault injection ([--netchaos]) delays, shortens/tears and
    cuts response writes deterministically: every decision is a pure
    function of [(netchaos seed, connection id, request index)], so a
    chaotic run is replayable. *)

(** {2 Listen addresses} *)

type addr =
  | Tcp of string * int  (** host, port (0 = kernel-assigned) *)
  | Unix_path of string

val addr_of_string : string -> (addr, string) result
(** Parses [[HOST:]PORT] (host defaults to 127.0.0.1) or [unix:PATH]. *)

val addr_to_string : addr -> string

(** {2 Deterministic network chaos} *)

type netchaos

val netchaos :
  ?label:string ->
  seed:int ->
  ?delay_rate:float ->
  ?delay_s:float ->
  ?short_rate:float ->
  ?drop_rate:float ->
  unit ->
  netchaos
(** [delay_rate] of responses are held back [delay_s] before any byte
    is written; [short_rate] are dribbled out a few bytes per tick
    (short/torn writes); [drop_rate] of requests cut the connection
    after a partial response write (mid-request disconnect).  All rates
    default to 0. *)

val netchaos_of_string : seed:int -> string -> (netchaos, string) result
(** Presets: [none], [slow] (delays), [torn] (short writes), [rude]
    (mid-request disconnects), [net] (all three). *)

val netchaos_label : netchaos -> string

(** {2 Server} *)

type config = {
  max_conns : int;  (** admission cap; beyond it clients are shed with [err busy] *)
  max_line : int;  (** request-line byte bound; beyond it [err line too long] + close *)
  idle_timeout_s : float;  (** read deadline / idle timeout (0 disables) *)
  write_queue_max : int;  (** per-connection response-queue bound in bytes *)
  drain_s : float;  (** drain deadline: how long {!stop} waits for in-flight flushes *)
  nc : netchaos;
}

val default_config : config
(** 64 connections, 4096-byte lines, 30 s idle timeout, 256 KiB write
    queues, 5 s drain, no netchaos. *)

(** How a connection ended.  Exactly one per accepted connection:
    [served + shed + timed_out + disconnected = conns_total] once
    {!run} returns. *)
type outcome =
  | Served  (** clean end: [quit], or EOF with no partial line pending *)
  | Shed  (** refused at admission with [err busy] *)
  | Timed_out  (** idle deadline, or force-closed at the drain deadline *)
  | Disconnected
      (** peer vanished: reset, died mid-line, oversized request, or a
          netchaos-injected cut *)

(** Mutable counters, readable at any time and final once {!run}
    returns. *)
type stats = {
  mutable conns_total : int;  (** accepted connections, shed included *)
  mutable served : int;
  mutable shed : int;
  mutable timed_out : int;
  mutable disconnected : int;
  mutable lines : int;  (** complete request lines handled *)
  mutable responses : int;  (** response lines queued *)
  mutable oversized : int;  (** closes due to an over-length line *)
  mutable torn : int;  (** EOFs that arrived mid-line *)
  mutable chaos_delays : int;
  mutable chaos_shorts : int;
  mutable chaos_drops : int;
  mutable drained : bool;  (** {!stop} was requested and the drain ran *)
}

type t

val create : ?config:config -> Daemon.t -> addr -> t
(** Binds and listens (unlinking a stale unix-socket path, reusing TCP
    addresses).  SIGPIPE is ignored process-wide — a peer closing
    mid-write must surface as [EPIPE], not kill the daemon.
    @raise Unix.Unix_error when the address cannot be bound. *)

val addr : t -> addr
(** The bound address — with the kernel-assigned port resolved, so
    [Tcp (host, 0)] callers learn where the server actually listens. *)

val stats : t -> stats

val stats_json : t -> string
(** One strict-JSON object over {!stats} plus the netchaos label. *)

val stop : t -> unit
(** Request a graceful drain; safe to call from a signal handler or
    another domain (it only sets an atomic flag — the event loop
    notices within one tick). *)

val run : t -> unit
(** The event loop: serves until {!stop}, then drains and returns.
    Emits [conn]/[drain]/[server_stats] events through the daemon's
    events stream.  The caller still owns {!Daemon.close}. *)
