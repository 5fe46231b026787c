(* churn-repair's session with [crt daemon --listen unix:PATH], run as
   a child process.

   This process is the only load generator and never spawns a domain
   while it measures: an idle second domain in the client was measured
   to slow a single-threaded loop by up to a sixth.  One connection,
   one request in flight.  Every answer is refereed after the timed
   phase, never during it. *)

open Common
module Graph = Cr_graph.Graph
open Compact_routing

(* ---- the session record ------------------------------------------------ *)

(* Read requests, their replies and round-trip seconds, in send order. *)
type log = {
  mutable lines : string array;
  mutable replies : string array;
  mutable rtt : float array;
  mutable len : int;
}

let new_log () = { lines = [||]; replies = [||]; rtt = [||]; len = 0 }

let push log line reply dt =
  if log.len = Array.length log.lines then begin
    let cap = max 1024 (2 * log.len) in
    let ext a fill = Array.init cap (fun i -> if i < log.len then a.(i) else fill) in
    log.lines <- ext log.lines "";
    log.replies <- ext log.replies "";
    log.rtt <- ext log.rtt 0.0
  end;
  log.lines.(log.len) <- line;
  log.replies.(log.len) <- reply;
  log.rtt.(log.len) <- dt;
  log.len <- log.len + 1

let replies log = Array.to_list (Array.sub log.replies 0 log.len)

type session = {
  d : Proc.daemon;
  c : Client.t;
  spans : Spans.t option;  (** client-side request spans, traced runs only *)
  mutable reads : int;
  mutable mutations : int;
}

let read s log line =
  let t0 = now () in
  let r = Client.call s.c line in
  let t1 = now () in
  (match s.spans with
  | Some sp -> ignore (Spans.add sp ~name:"client.request" ~parent:(-1) ~req:s.reads ~t0 ~t1)
  | None -> ());
  push log line r (t1 -. t0);
  s.reads <- s.reads + 1;
  if s.reads mod stats_every = 0 then
    check (Answers.is_ok (Client.call s.c "stats")) "a stats scrape failed";
  r

(* A cyclic read stream. *)
type stream = { src : string array; mutable pos : int }

let next st =
  let l = st.src.(st.pos mod Array.length st.src) in
  st.pos <- st.pos + 1;
  l

type churned = {
  acks : string list;
  fresh : float list;  (** seconds from writing a mutation to the first reply citing it *)
  at : int list;  (** how many reads of the log preceded each mutation *)
}

(* Sends each mutation, then issues reads from [st] until a reply cites
   the epoch containing it, so reads run beside the repair. *)
let churn s st log muts =
  let acks = ref [] and fresh = ref [] and at = ref [] in
  List.iter
    (fun mu ->
      let t0 = now () in
      at := log.len :: !at;
      let ack = Client.call s.c (Graph.mutation_to_string mu) in
      s.mutations <- s.mutations + 1;
      acks := ack :: !acks;
      if Answers.is_ok ack then begin
        let target = s.mutations in
        let rec wait () =
          if now () -. t0 > 120.0 then failwith "a mutation stayed invisible for 120 s";
          match Answers.epoch (read s log (next st)) with
          | Some e when e >= target -> fresh := (now () -. t0) :: !fresh
          | _ -> wait ()
        in
        wait ()
      end)
    muts;
  { acks = List.rev !acks; fresh = List.rev !fresh; at = List.rev !at }

(* ---- daemon lifecycle ---------------------------------------------------- *)

let sock = "d.sock"

let daemon_argv o ~graph extra =
  Array.of_list ([ o.crt; "daemon"; "-g"; graph; "--listen"; "unix:" ^ sock ] @ extra)

let drained_json lines =
  let pre = "ok drained " in
  let pl = String.length pre in
  match
    List.find_opt (fun l -> String.length l > pl && String.sub l 0 pl = pre) lines
  with
  | Some l -> String.sub l pl (String.length l - pl)
  | None -> ""

let expect_drain ~what ~lines ~conns rest code =
  check_eq (what ^ ": exit code after SIGTERM") 143 code;
  let j = drained_json rest in
  check (j <> "") (what ^ ": no ok drained line");
  let get key = Option.value ~default:(-1) (Answers.json_int j key) in
  check_eq (what ^ ": drained lines") lines (get "lines");
  check_eq (what ^ ": drained conns") conns (get "conns");
  check_eq (what ^ ": drained served") conns (get "served");
  List.iter
    (fun key -> check_eq (what ^ ": drained " ^ key) 0 (get key))
    [ "shed"; "timed_out"; "disconnected" ]

(* Spawns [count] daemons in turn, timing each from spawn to its
   [ok listening] line; all but the last are drained at once.  Returns
   the last daemon and the setup samples. *)
let start ~count argv_of =
  let rec go i acc =
    let d, s = Proc.spawn (argv_of i) in
    if i = count then (d, List.rev (s :: acc))
    else begin
      let rest, code = Proc.terminate d in
      expect_drain ~what:"setup-only daemon" ~lines:0 ~conns:0 rest code;
      go (i + 1) (s :: acc)
    end
  in
  go 1 []

let connect ?spans d =
  { d; c = Client.connect_unix sock; spans; reads = 0; mutations = 0 }

(* The final stats scrape, [quit], SIGTERM and drain, reconciled
   against what this client sent.  Returns the final stats JSON. *)
let finish s =
  let stats = Client.call s.c "stats" in
  let json =
    if String.length stats > 9 && String.sub stats 0 9 = "ok stats " then
      String.sub stats 9 (String.length stats - 9)
    else ""
  in
  let get key = Option.value ~default:(-1) (Answers.json_int json key) in
  check_eq "stats queries" s.reads (get "queries");
  check_eq "stats mutations" s.mutations (get "mutations");
  check_eq "stats repairs" s.mutations (get "repairs");
  check_eq "stats epoch" s.mutations (get "epoch");
  check (Client.call s.c "quit" = "ok bye") "quit was not acknowledged";
  check_eq "client in flight" 1 s.c.Client.max_in_flight;
  let sent = s.c.Client.sent in
  Client.close s.c;
  let rest, code = Proc.terminate s.d in
  expect_drain ~what:"serving daemon" ~lines:sent ~conns:1 rest code;
  json

(* ---- refereeing ------------------------------------------------------------ *)

(* Errors among a log's replies: [err] lines and undelivered routes. *)
let count_errors log =
  List.length
    (List.filter
       (fun r -> (not (Answers.is_ok r)) || Answers.field r "delivered" = Some "false")
       (replies log))

let route_stretches log =
  let acc = ref [] in
  for i = log.len - 1 downto 0 do
    match Answers.field log.replies.(i) "stretch" with
    | Some s when String.length log.lines.(i) > 6 && String.sub log.lines.(i) 0 6 = "route " ->
        acc := float_of_string s :: !acc
    | _ -> ()
  done;
  !acc

let table_bits_mean apsp =
  let agm = Agm06.build ~params apsp in
  Storage.mean_node_bits (Agm06.scheme agm).Scheme.storage

(* Round-trip percentiles in microseconds over every read of the logs. *)
let rtt_pct logs =
  let us log = Array.map (fun s -> 1e6 *. s) (Array.sub log.rtt 0 log.len) in
  let p = Pct.of_array (Array.concat (List.map us logs)) in
  check (Pct.p99_supported p) "too few latency samples to support a p99";
  p
