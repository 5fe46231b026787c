(* Tests for the socket front end (DESIGN.md §13): address parsing,
   byte-identity with the stdin transport, hostile clients (half-line
   disconnects, oversized lines, slow readers), admission shedding,
   idle deadlines, independent interleaved sessions, parked sync,
   graceful drain, deterministic netchaos, and the outcome invariant —
   every accepted connection ends in exactly one of
   served/shed/timed-out/disconnected, and the counters reconcile. *)

module Rng = Cr_util.Rng
module Graph = Cr_graph.Graph
module Gio = Cr_graph.Gio
module Generators = Cr_graph.Generators
module Guard = Cr_guard
module Daemon = Cr_daemon.Daemon
module Server = Cr_daemon.Server
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let mk_graph ?(n = 48) seed =
  let rng = Rng.create seed in
  let g = Generators.erdos_renyi rng ~n ~avg_degree:4.0 in
  Graph.reweight g (fun _ _ _ -> 1.0 +. float_of_int (Rng.int rng 7))

let params = Params.scaled ~k:3 ()

(* mirrors test_daemon: a random mutation applicable to the current
   graph, and a [count]-step script each step of which applies to the
   graph the previous steps produce *)
let random_mutation rng g =
  let n = Graph.n g in
  let es = Array.of_list (Graph.edges g) in
  let w () = 1.0 +. float_of_int (Rng.int rng 7) in
  match Rng.int rng 5 with
  | 0 when Array.length es > 0 ->
      let u, v, _ = es.(Rng.int rng (Array.length es)) in
      Graph.Set_weight (u, v, w ())
  | 1 when Array.length es > 1 ->
      let u, v, _ = es.(Rng.int rng (Array.length es)) in
      Graph.Link_down (u, v)
  | 2 ->
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v && not (Graph.has_edge g u v) then Graph.Link_up (u, v, w ())
      else Graph.Node_up (Rng.int rng n)
  | 3 -> Graph.Node_down (Rng.int rng n)
  | _ -> Graph.Node_up (Rng.int rng n)

let script g seed count =
  let rng = Rng.create (1000 + seed) in
  let rec go acc g k =
    if k = 0 then List.rev acc
    else
      let mu = random_mutation rng g in
      match Graph.apply g mu with
      | g' -> go (mu :: acc) g' (k - 1)
      | exception Invalid_argument _ -> go acc g k
  in
  go [] g count

let feed1 d line =
  match Daemon.handle d line with [ r ] -> r | rs -> String.concat "|" rs

let answers d pairs =
  List.concat_map
    (fun (u, v) ->
      [
        feed1 d (Printf.sprintf "dist %d %d" u v);
        feed1 d (Printf.sprintf "route %d %d" u v);
        feed1 d (Printf.sprintf "path %d %d" u v);
      ])
    pairs

let strip_epoch r =
  match String.rindex_opt r ' ' with Some i -> String.sub r 0 i | None -> r

let in_temp_dir f =
  let dir = Filename.temp_file "crsrv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let wait_for ?(timeout_s = 5.0) f =
  let rec go n =
    if f () then true
    else if n <= 0 then false
    else begin
      Unix.sleepf 0.002;
      go (n - 1)
    end
  in
  go (int_of_float (timeout_s /. 0.002))

(* ------------------------------------------------------------------ *)
(* Harness: a daemon + server on a unix socket in [dir], the event loop
   in its own domain, torn down by [shutdown] (graceful drain). *)

type h = { sock : string; d : Daemon.t; srv : Server.t; dom : unit Domain.t }

let start ?(config = Server.default_config) ?journal ?snapshot_dir ?repair_hook
    ?(seed = 11) dir =
  let g = mk_graph seed in
  let d =
    Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ?journal
      ?snapshot_dir ?repair_hook ~params g
  in
  let sock = Filename.concat dir "crt.sock" in
  let srv = Server.create ~config d (Server.Unix_path sock) in
  let dom = Domain.spawn (fun () -> Server.run srv) in
  { sock; d; srv; dom }

let shutdown h =
  Server.stop h.srv;
  Domain.join h.dom;
  Daemon.close h.d

(* raw-fd clients: blocking with a receive deadline, so a misbehaving
   server fails the test loudly instead of hanging it *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let send fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* one response line, newline stripped; "" on EOF before any byte *)
let recv_line fd =
  let buf = Buffer.create 64 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
        if Bytes.get b 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
  in
  go ()

let ask fd line =
  send fd (line ^ "\n");
  recv_line fd

(* everything until EOF (resets count as EOF: the bytes are gone) *)
let recv_all fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reconciles st =
  st.Server.conns_total
  = st.Server.served + st.Server.shed + st.Server.timed_out + st.Server.disconnected

(* ------------------------------------------------------------------ *)
(* Addresses and netchaos parsing *)

let test_addr_parsing () =
  (match Server.addr_of_string "7070" with
  | Ok (Server.Tcp ("127.0.0.1", 7070)) -> ()
  | _ -> Alcotest.fail "bare port should be 127.0.0.1:PORT");
  (match Server.addr_of_string "0.0.0.0:8080" with
  | Ok (Server.Tcp ("0.0.0.0", 8080)) -> ()
  | _ -> Alcotest.fail "HOST:PORT should parse");
  (match Server.addr_of_string "unix:/tmp/x.sock" with
  | Ok (Server.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix:PATH should parse");
  (match Server.addr_of_string "not-a-port" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  (match Server.addr_of_string "host:" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty port must not parse");
  checks "unix round-trip" "unix:/tmp/x.sock"
    (Server.addr_to_string (Server.Unix_path "/tmp/x.sock"));
  checks "tcp round-trip" "10.0.0.1:99" (Server.addr_to_string (Server.Tcp ("10.0.0.1", 99)));
  List.iter
    (fun p ->
      match Server.netchaos_of_string ~seed:1 p with
      | Ok nc -> checks "preset label" p (Server.netchaos_label nc)
      | Error e -> Alcotest.failf "preset %s: %s" p e)
    [ "none"; "slow"; "torn"; "rude"; "net" ];
  match Server.netchaos_of_string ~seed:1 "bogus" with
  | Error e -> checkb "error names the presets" true (contains e "bogus")
  | Ok _ -> Alcotest.fail "unknown preset must not parse"

(* ------------------------------------------------------------------ *)
(* Byte-identity: with netchaos off, a scripted socket session produces
   exactly the bytes the stdin transport (Daemon.handle) produces. *)

let session_script =
  [
    "route 1 2";
    "dist 2 3";
    "# a comment the daemon must skip";
    "";
    "path 0 5";
    "linkup 1 2 3";
    "sync";
    "dist 1 2";
    "definitely-not-a-command";
    "help";
    "quit";
  ]

let test_socket_byte_identity () =
  in_temp_dir (fun dir ->
      (* reference run: same graph, same lines, straight through
         Daemon.handle — this is what `crt daemon` on stdin emits *)
      let dref =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~params (mk_graph 11)
      in
      let expect =
        String.concat ""
          (List.concat_map
             (fun l -> List.map (fun r -> r ^ "\n") (Daemon.handle dref l))
             session_script)
      in
      Daemon.close dref;
      let h = start dir in
      let got =
        Fun.protect
          ~finally:(fun () -> shutdown h)
          (fun () ->
            let fd = connect h.sock in
            send fd (String.concat "\n" session_script ^ "\n");
            let got = recv_all fd in
            close_quiet fd;
            got)
      in
      checks "socket transport is byte-identical to the stdin transport" expect got;
      let st = Server.stats h.srv in
      checki "one connection, served" 1 st.Server.served;
      checkb "counters reconcile" true (reconciles st))

(* What the stdin transport answers to [lines] on a fresh daemon over
   the harness's graph. *)
let stdin_transcript lines =
  let d = Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~params (mk_graph 11) in
  let out =
    String.concat ""
      (List.concat_map (fun l -> List.map (fun r -> r ^ "\n") (Daemon.handle d l)) lines)
  in
  Daemon.close d;
  out

let query_line i =
  Printf.sprintf "%s %d %d" (if i mod 2 = 0 then "route" else "dist") (i mod 48) (i * 7 mod 48)

(* 500 lines in one write span several reads, so some straddle a read
   boundary; every reply comes back, in order, as over stdin. *)
let test_pipelined_burst_byte_identity () =
  in_temp_dir (fun dir ->
      let lines = List.init 500 query_line in
      let expect = stdin_transcript lines in
      let h = start dir in
      let got =
        Fun.protect
          ~finally:(fun () -> shutdown h)
          (fun () ->
            let fd = connect h.sock in
            send fd (String.concat "" (List.map (fun l -> l ^ "\n") lines));
            let got = Buffer.create 4096 in
            for _ = 1 to 500 do
              Buffer.add_string got (recv_line fd ^ "\n")
            done;
            send fd "quit\n";
            ignore (recv_all fd);
            close_quiet fd;
            Buffer.contents got)
      in
      checks "500 pipelined replies, in order, byte-identical to stdin" expect got;
      let st = Server.stats h.srv in
      checki "every line handled" 501 st.Server.lines;
      checkb "counters reconcile" true (reconciles st))

(* A client that writes without reading fills its socket: the server's
   writes hit EAGAIN, its queue passes the bound and it stops reading,
   until the client's own writes stall too.  Once the client reads,
   every reply arrives, in order. *)
let test_slow_reader_gets_every_reply () =
  in_temp_dir (fun dir ->
      let config = { Server.default_config with Server.write_queue_max = 16 * 1024 } in
      let h = start ~config dir in
      let per_chunk = 64 in
      let chunk k =
        String.concat ""
          (List.init per_chunk (fun j -> query_line ((k * per_chunk) + j) ^ "\n"))
      in
      let handled () = (Server.stats h.srv).Server.lines in
      let chunks, got =
        Fun.protect
          ~finally:(fun () -> shutdown h)
          (fun () ->
            let fd = connect h.sock in
            Unix.set_nonblock fd;
            (* whole chunks until a write stalls while the server handles
               no more lines; [k] is the chunk in flight, [off] its
               bytes written.  About 8k lines stall it; a server that
               never stops reading fails the test instead of hanging it *)
            let rec fill k s off =
              if k > 2000 then Alcotest.fail "the server never stopped reading";
              match Unix.single_write_substring fd s off (String.length s - off) with
              | n when off + n = String.length s -> fill (k + 1) (chunk (k + 1)) 0
              | n -> fill k s (off + n)
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  let before = handled () in
                  Unix.sleepf 0.05;
                  if handled () = before then (k, s, off) else fill k s off
            in
            let k, s, off = fill 0 (chunk 0) 0 in
            Unix.clear_nonblock fd;
            let reader = Domain.spawn (fun () -> recv_all fd) in
            send fd (String.sub s off (String.length s - off));
            send fd "quit\n";
            let got = Domain.join reader in
            close_quiet fd;
            (k + 1, got))
      in
      let lines = List.init (chunks * per_chunk) query_line in
      (* replies run under 100 bytes, so fewer lines could not have
         filled the server's queue past its bound *)
      checkb
        (Printf.sprintf "the client stalled only past the server's bound (%d lines)"
           (List.length lines))
        true
        (List.length lines > 16 * 1024 / 100);
      checks "every reply, in order, byte-identical to stdin"
        (stdin_transcript (lines @ [ "quit" ]))
        got;
      let st = Server.stats h.srv in
      checki "one connection, served" 1 st.Server.served;
      checki "every line handled" (List.length lines + 1) st.Server.lines;
      checkb "counters reconcile" true (reconciles st))

(* ------------------------------------------------------------------ *)
(* Hostile clients *)

let test_half_line_then_disconnect () =
  in_temp_dir (fun dir ->
      let h = start dir in
      Fun.protect
        ~finally:(fun () -> shutdown h)
        (fun () ->
          let fd = connect h.sock in
          let r = ask fd "route 1 2" in
          checkb "served before the rudeness" true (contains r "ok route");
          (* die mid-line: bytes but no newline, then vanish *)
          send fd "route 3";
          close_quiet fd;
          checkb "server notices the torn input" true
            (wait_for (fun () -> (Server.stats h.srv).Server.disconnected = 1));
          let st = Server.stats h.srv in
          checki "torn counted" 1 st.Server.torn;
          checki "only the complete line was handled" 1 st.Server.lines;
          (* the daemon and new clients are untouched *)
          let fd2 = connect h.sock in
          let r = ask fd2 "route 1 2" in
          checkb "next client served" true (contains r "ok route");
          send fd2 "quit\n";
          ignore (recv_all fd2);
          close_quiet fd2));
  ()

let test_oversized_line () =
  in_temp_dir (fun dir ->
      let config = { Server.default_config with Server.max_line = 64 } in
      let h = start ~config dir in
      Fun.protect
        ~finally:(fun () -> shutdown h)
        (fun () ->
          let fd = connect h.sock in
          let r = ask fd "route 1 2" in
          checkb "normal line fine" true (contains r "ok route");
          send fd (String.make 500 'x');
          let rest = recv_all fd in
          close_quiet fd;
          checkb
            (Printf.sprintf "structured err before close: %s" rest)
            true
            (contains rest "err line 2 too long max=64"));
      let st = Server.stats h.srv in
      checki "oversize counted" 1 st.Server.oversized;
      checki "connection ended disconnected" 1 st.Server.disconnected;
      checkb "counters reconcile" true (reconciles st))

let test_err_busy_shedding () =
  in_temp_dir (fun dir ->
      let config = { Server.default_config with Server.max_conns = 1 } in
      let h = start ~config dir in
      Fun.protect
        ~finally:(fun () -> shutdown h)
        (fun () ->
          let fd1 = connect h.sock in
          (* a full round-trip proves fd1 is registered before fd2 knocks *)
          let r = ask fd1 "route 1 2" in
          checkb "first client served" true (contains r "ok route");
          let fd2 = connect h.sock in
          let refusal = recv_all fd2 in
          close_quiet fd2;
          checkb
            (Printf.sprintf "second client shed with a structured line: %s" refusal)
            true
            (contains refusal "err busy conns=1 max=1");
          (* the shed never disturbed the admitted session *)
          let r = ask fd1 "dist 2 3" in
          checkb "first client still served" true (contains r "ok dist");
          send fd1 "quit\n";
          ignore (recv_all fd1);
          close_quiet fd1);
      let st = Server.stats h.srv in
      checki "shed counted" 1 st.Server.shed;
      checki "served counted" 1 st.Server.served;
      checkb "counters reconcile" true (reconciles st))

let test_idle_timeout () =
  in_temp_dir (fun dir ->
      let config = { Server.default_config with Server.idle_timeout_s = 0.1 } in
      let h = start ~config dir in
      Fun.protect
        ~finally:(fun () -> shutdown h)
        (fun () ->
          let fd = connect h.sock in
          let r = ask fd "route 1 2" in
          checkb "served while active" true (contains r "ok route");
          (* now go quiet: the slow-loris defense must evict us *)
          let r = recv_line fd in
          checkb (Printf.sprintf "idle deadline fired: %s" r) true (contains r "err idle");
          close_quiet fd);
      let st = Server.stats h.srv in
      checki "idle eviction is a timeout" 1 st.Server.timed_out;
      checkb "counters reconcile" true (reconciles st))

let test_interleaved_sessions_independent_linenos () =
  in_temp_dir (fun dir ->
      let h = start dir in
      Fun.protect
        ~finally:(fun () -> shutdown h)
        (fun () ->
          let fd1 = connect h.sock and fd2 = connect h.sock in
          let r = ask fd1 "route 1 2" in
          checkb "fd1 line 1" true (contains r "ok route");
          (* fd2's first bad line is *its* line 1, not a shared counter *)
          let r = ask fd2 "bogus" in
          checkb (Printf.sprintf "fd2 errors at line 1: %s" r) true (contains r "err line 1");
          let r = ask fd1 "bogus" in
          checkb (Printf.sprintf "fd1 errors at line 2: %s" r) true (contains r "err line 2");
          let r = ask fd2 "bogus" in
          checkb (Printf.sprintf "fd2 errors at line 2: %s" r) true (contains r "err line 2");
          List.iter
            (fun fd ->
              send fd "quit\n";
              ignore (recv_all fd);
              close_quiet fd)
            [ fd1; fd2 ]));
  ()

(* ------------------------------------------------------------------ *)
(* Parked sync: one client waiting on repair must not stall the loop *)

let test_parked_sync_does_not_block_others () =
  in_temp_dir (fun dir ->
      let h = start ~repair_hook:(fun () -> Unix.sleepf 0.5) dir in
      Fun.protect
        ~finally:(fun () -> shutdown h)
        (fun () ->
          let u, v, _ = List.hd (Graph.edges (mk_graph 11)) in
          let fda = connect h.sock and fdb = connect h.sock in
          let r = ask fda (Printf.sprintf "linkdown %d %d" u v) in
          checkb "mutation acked" true (contains r "ok mutate");
          (* fda parks on sync (repair takes >= 0.5s); fdb must be
             served immediately in the meantime *)
          send fda "sync\n";
          let t0 = Unix.gettimeofday () in
          let r = ask fdb "route 1 2" in
          let dt = Unix.gettimeofday () -. t0 in
          checkb "other client served" true (contains r "ok route");
          checkb
            (Printf.sprintf "served while sync parked (%.3fs)" dt)
            true (dt < 0.3);
          let r = recv_line fda in
          checkb (Printf.sprintf "parked sync resolves: %s" r) true
            (contains r "ok sync epoch=1 backlog=0");
          List.iter
            (fun fd ->
              send fd "quit\n";
              ignore (recv_all fd);
              close_quiet fd)
            [ fda; fdb ]))

(* ------------------------------------------------------------------ *)
(* Drain *)

let test_drain_deadline_expires_on_stuck_reader () =
  in_temp_dir (fun dir ->
      (* every response is held 10 s before any byte moves — a stand-in
         for a reader whose socket never drains; the drain deadline
         (0.1 s) must force-close it rather than wait *)
      let nc = Server.netchaos ~label:"stuck" ~seed:3 ~delay_rate:1.0 ~delay_s:10.0 () in
      let config = { Server.default_config with Server.nc; Server.drain_s = 0.1 } in
      let h = start ~config dir in
      let fd = connect h.sock in
      send fd "route 1 2\n";
      checkb "request reached the daemon" true
        (wait_for (fun () -> (Server.stats h.srv).Server.lines = 1));
      let t0 = Unix.gettimeofday () in
      Server.stop h.srv;
      Domain.join h.dom;
      let dt = Unix.gettimeofday () -. t0 in
      Daemon.close h.d;
      close_quiet fd;
      checkb (Printf.sprintf "drain returned promptly (%.3fs)" dt) true (dt < 5.0);
      let st = Server.stats h.srv in
      checkb "drain ran" true st.Server.drained;
      checki "stuck connection force-closed as timed-out" 1 st.Server.timed_out;
      checkb "counters reconcile" true (reconciles st))

let test_graceful_drain_flushes_in_flight () =
  in_temp_dir (fun dir ->
      let h = start dir in
      let fd = connect h.sock in
      let r = ask fd "route 1 2" in
      checkb "served" true (contains r "ok route");
      (* stop while the client is connected but idle: drain must close
         it cleanly as served, not shoot it *)
      Server.stop h.srv;
      Domain.join h.dom;
      Daemon.close h.d;
      checks "clean EOF after drain" "" (recv_all fd);
      close_quiet fd;
      let st = Server.stats h.srv in
      checkb "drain ran" true st.Server.drained;
      checki "idle connection closed served" 1 st.Server.served;
      checkb "counters reconcile" true (reconciles st))

(* ------------------------------------------------------------------ *)
(* Netchaos storm: concurrent clients under delays, short writes and
   injected cuts.  The server must never crash, and the outcome
   taxonomy must reconcile exactly. *)

let storm_client sock cid =
  let rng = Rng.create (900 + cid) in
  try
    let fd = connect sock in
    Fun.protect
      ~finally:(fun () -> close_quiet fd)
      (fun () ->
        let eof = ref false in
        for _ = 1 to 12 do
          if not !eof then begin
            let u = Rng.int rng 48 and v = Rng.int rng 48 in
            send fd (Printf.sprintf "route %d %d\n" u v);
            (* under netchaos the server may cut us mid-response *)
            if recv_line fd = "" then eof := true
          end
        done;
        if not !eof then
          if cid = 3 then send fd "route 1" (* rude: half a line, then hang up *)
          else begin
            send fd "quit\n";
            ignore (recv_all fd)
          end)
  with
  | Unix.Unix_error _ -> ()
  | End_of_file -> ()

let test_netchaos_storm_reconciles () =
  in_temp_dir (fun dir ->
      let nc =
        match Server.netchaos_of_string ~seed:42 "net" with
        | Ok nc -> nc
        | Error e -> Alcotest.fail e
      in
      let config = { Server.default_config with Server.nc } in
      let h = start ~config dir in
      let clients = List.init 4 (fun cid -> Domain.spawn (fun () -> storm_client h.sock cid)) in
      List.iter Domain.join clients;
      (* the daemon survived the storm: it still answers *)
      let r = List.hd (Daemon.handle h.d "route 0 1") in
      checkb "daemon alive after the storm" true (contains r "ok route");
      shutdown h;
      let st = Server.stats h.srv in
      checkb "all four clients accepted" true (st.Server.conns_total >= 4);
      checkb "chaos actually fired" true
        (st.Server.chaos_delays + st.Server.chaos_shorts + st.Server.chaos_drops > 0);
      checkb
        (Printf.sprintf "every connection ended in exactly one outcome (%s)"
           (Server.stats_json h.srv))
        true (reconciles st);
      match Cr_util.Jsonl.validate (Server.stats_json h.srv) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "stats json invalid: %s" e)

(* determinism: the same seed and session replays the same injected
   faults — chaos counters are identical across runs *)
let test_netchaos_deterministic_replay () =
  let run () =
    in_temp_dir (fun dir ->
        let nc =
          Server.netchaos ~label:"det" ~seed:7 ~delay_rate:0.3 ~delay_s:0.005
            ~short_rate:0.5 ()
        in
        let config = { Server.default_config with Server.nc } in
        let h = start ~config dir in
        Fun.protect
          ~finally:(fun () -> shutdown h)
          (fun () ->
            let fd = connect h.sock in
            for q = 0 to 19 do
              ignore (ask fd (Printf.sprintf "route %d %d" (q mod 7) (7 + (q mod 9))))
            done;
            send fd "quit\n";
            ignore (recv_all fd);
            close_quiet fd);
        let st = Server.stats h.srv in
        (st.Server.chaos_delays, st.Server.chaos_shorts, st.Server.chaos_drops))
  in
  let ((da, sa, ka) as a) = run () in
  let ((db, sb, kb) as b) = run () in
  checkb
    (Printf.sprintf "identical injected faults across runs: %d/%d/%d vs %d/%d/%d" da sa
       ka db sb kb)
    true (a = b);
  checkb "chaos actually fired" true (da + sa + ka > 0)

(* ------------------------------------------------------------------ *)
(* Recovery: after socket churn and a drain, --recover answers exactly
   like a daemon that never went down, over the acked prefix. *)

let test_post_drain_recover_byte_identity () =
  in_temp_dir (fun dir ->
      let jpath = Filename.concat dir "journal.log" in
      let snaps = Filename.concat dir "snaps" in
      Unix.mkdir snaps 0o755;
      let g0 = mk_graph 11 in
      let mus = script g0 313 8 in
      let h = start ~journal:jpath ~snapshot_dir:snaps dir in
      (* churn over the socket; every mutation must come back acked,
         and acked means journaled — it must survive the drain *)
      let acked = ref [] in
      let fd = connect h.sock in
      List.iter
        (fun mu ->
          let r = ask fd (Graph.mutation_to_string mu) in
          checkb (Printf.sprintf "mutation acked: %s" r) true (contains r "ok mutate");
          acked := mu :: !acked)
        mus;
      let r = ask fd "sync" in
      checkb "synced over the socket" true (contains r "ok sync");
      send fd "quit\n";
      ignore (recv_all fd);
      close_quiet fd;
      shutdown h;
      (* the daemon that never went down *)
      let never =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~params g0
      in
      List.iter
        (fun mu -> ignore (Daemon.handle never (Graph.mutation_to_string mu)))
        (List.rev !acked);
      (match Daemon.sync never with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "never-crashed sync: %s" e);
      (* the daemon recovered from what the drained server persisted *)
      let recovered =
        Daemon.create ~policy:Guard.Policy.off ~staleness_every:0 ~journal:jpath
          ~snapshot_dir:snaps ~recover:true ~params g0
      in
      checkb "recovery info present" true (Daemon.recovery recovered <> None);
      let expected = Graph.apply_all g0 (List.rev !acked) in
      checks "recovered live graph = the acked prefix" (Gio.to_string expected)
        (Gio.to_string (Daemon.live_graph recovered));
      let rng = Rng.create 313 in
      let pairs = List.init 24 (fun _ -> (Rng.int rng 48, Rng.int rng 48)) in
      let a = List.map strip_epoch (answers recovered pairs)
      and b = List.map strip_epoch (answers never pairs) in
      Daemon.close recovered;
      Daemon.close never;
      List.iter2 (fun x y -> checks "recovered answer = never-crashed answer" y x) a b)

let () =
  Alcotest.run "server"
    [
      ( "surface",
        [
          Alcotest.test_case "addresses and netchaos parse" `Quick test_addr_parsing;
          Alcotest.test_case "socket session byte-identical to stdin" `Quick
            test_socket_byte_identity;
          Alcotest.test_case "pipelined burst byte-identical to stdin" `Quick
            test_pipelined_burst_byte_identity;
        ] );
      ( "hostile clients",
        [
          Alcotest.test_case "half line then disconnect is torn, not fatal" `Quick
            test_half_line_then_disconnect;
          Alcotest.test_case "oversized line gets a structured refusal" `Quick
            test_oversized_line;
          Alcotest.test_case "admission cap sheds with err busy" `Quick
            test_err_busy_shedding;
          Alcotest.test_case "idle connections are evicted" `Quick test_idle_timeout;
          Alcotest.test_case "interleaved sessions number lines independently" `Quick
            test_interleaved_sessions_independent_linenos;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "parked sync never blocks other clients" `Quick
            test_parked_sync_does_not_block_others;
          Alcotest.test_case "a reader that falls behind gets every reply" `Quick
            test_slow_reader_gets_every_reply;
        ] );
      ( "drain",
        [
          Alcotest.test_case "graceful drain flushes in-flight work" `Quick
            test_graceful_drain_flushes_in_flight;
          Alcotest.test_case "drain deadline force-closes a stuck reader" `Quick
            test_drain_deadline_expires_on_stuck_reader;
        ] );
      ( "netchaos",
        [
          Alcotest.test_case "4-client storm reconciles outcomes" `Quick
            test_netchaos_storm_reconciles;
          Alcotest.test_case "fault injection replays deterministically" `Quick
            test_netchaos_deterministic_replay;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "post-drain recover answers byte-identically" `Quick
            test_post_drain_recover_byte_identity;
        ] );
    ]
