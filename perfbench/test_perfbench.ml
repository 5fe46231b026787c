(* Self-tests of the benchmark's own code: percentiles, the answer
   digest, the mutation generator and the one-in-flight client. *)

open Perfbench
module Graph = Cr_graph.Graph

let pct () =
  let p = Pct.of_array (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 p.Pct.p50;
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 p.Pct.p99;
  Alcotest.(check int) "count" 100 p.Pct.count;
  Alcotest.(check bool) "100 samples cannot support a p99" false (Pct.p99_supported p);
  let q = Pct.of_array (Array.init 1000 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 q.Pct.p99;
  Alcotest.(check bool) "1000 samples support a p99" true (Pct.p99_supported q);
  let one = Pct.of_list [ 7.0 ] in
  Alcotest.(check (float 0.0)) "single p50" 7.0 one.Pct.p50;
  Alcotest.(check (float 0.0)) "single p99" 7.0 one.Pct.p99;
  Alcotest.(check (float 0.0)) "median of two is the lower" 1.0 (Pct.median [ 2.0; 1.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Pct.rank: empty sample") (fun () ->
      ignore (Pct.of_array [||]));
  (* four quiet windows of 1..1000 and one burst window at 10x *)
  let quiet = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let burst = Array.map (fun x -> 10.0 *. x) quiet in
  let w = Pct.windowed [ quiet; burst; quiet; quiet; quiet ] in
  Alcotest.(check (float 0.0)) "windowed p99 ignores one burst window" 990.0 w.Pct.p99;
  Alcotest.(check (float 0.0)) "pooled p99 does not" 9500.0
    (Pct.of_array (Array.concat [ quiet; burst; quiet; quiet; quiet ])).Pct.p99;
  Alcotest.(check (float 0.0)) "windowed p50 is pooled" 610.0 w.Pct.p50;
  Alcotest.(check int) "windowed count is every sample" 5000 w.Pct.count;
  Alcotest.check_raises "short window" (Invalid_argument "Pct.windowed: a window too short for a p99")
    (fun () -> ignore (Pct.windowed [ quiet; Array.sub quiet 0 999 ]))

let digest () =
  let a = "ok route 1 2 delivered=true hops=3 cost=4 stretch=1 epoch=0" in
  let b = "ok route 1 2 delivered=true hops=3 cost=4 stretch=1 epoch=17" in
  let c = "ok route 1 2 delivered=true hops=4 cost=5 stretch=1.25 epoch=0" in
  Alcotest.(check string) "strip" "ok route 1 2 delivered=true hops=3 cost=4 stretch=1"
    (Answers.strip_epoch b);
  Alcotest.(check string) "sync" "ok sync backlog=0" (Answers.strip_epoch "ok sync epoch=3 backlog=0");
  Alcotest.(check string) "epochs do not count" (Answers.digest [ a; "x" ]) (Answers.digest [ b; "x" ]);
  Alcotest.(check bool) "answers do" true (Answers.digest [ a ] <> Answers.digest [ c ]);
  Alcotest.(check bool) "order does" true (Answers.digest [ a; c ] <> Answers.digest [ c; a ]);
  Alcotest.(check (option int)) "epoch" (Some 17) (Answers.epoch b);
  Alcotest.(check (option int)) "no epoch" None (Answers.epoch "ok bye");
  Alcotest.(check (option int)) "sync epoch" (Some 4) (Answers.epoch "ok sync epoch=4 backlog=0");
  Alcotest.(check (option string)) "field" (Some "3") (Answers.field a "hops");
  Alcotest.(check (option int)) "json int" (Some 42)
    (Answers.json_int "{\"a\":1,\"queries\":42,\"b\":null}" "queries");
  Alcotest.(check (option (float 0.0))) "json float" (Some 0.5)
    (Answers.json_float "{\"cache_hit_rate\":0.5}" "cache_hit_rate")

let mutations () =
  let g = Perfbench.Common.integer_weights (Perfbench.Common.power_law ~n:512) in
  let muts = Mutgen.generate ~seed:3 g ~count:24 in
  Alcotest.(check int) "count" 24 (List.length muts);
  let final =
    List.fold_left
      (fun g mu ->
        let g = Graph.apply g mu in
        Alcotest.(check bool)
          ("connected after " ^ Graph.mutation_to_string mu)
          true (Cr_graph.Component.is_connected g);
        Alcotest.(check bool) "weights stay at least 1" true (Graph.min_weight g >= 1.0);
        g)
      g muts
  in
  Alcotest.(check int) "edges come back" (Graph.m g)
    (Graph.m final
    + List.length (List.filter (function Graph.Link_down _ -> true | _ -> false) muts)
    - List.length (List.filter (function Graph.Link_up _ -> true | _ -> false) muts));
  Alcotest.(check bool) "both kinds occur" true
    (List.exists (function Graph.Link_down _ -> true | _ -> false) muts
    && List.exists (function Graph.Set_weight _ -> true | _ -> false) muts);
  Alcotest.(check bool) "seeded" true (muts = Mutgen.generate ~seed:3 g ~count:24);
  Alcotest.(check bool) "seed matters" true (muts <> Mutgen.generate ~seed:4 g ~count:24)

(* A fake server on a socketpair that reads raw bytes and, before
   answering each request, waits briefly and checks that nothing beyond
   that one line has arrived. *)
let one_in_flight () =
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let overlaps = ref 0 and served = ref 0 in
  let server =
    Thread.create
      (fun () ->
        let chunk = Bytes.create 4096 and buf = Buffer.create 64 in
        let read () =
          let n = Unix.read theirs chunk 0 (Bytes.length chunk) in
          Buffer.add_subbytes buf chunk 0 n;
          n
        in
        let rec serve () =
          if read () > 0 then begin
            let s = Buffer.contents buf in
            match String.index_opt s '\n' with
            | None -> serve ()
            | Some i ->
                let pending, _, _ = Unix.select [ theirs ] [] [] 0.002 in
                if i <> String.length s - 1 || pending <> [] then incr overlaps;
                incr served;
                Buffer.clear buf;
                let reply = "ok " ^ String.sub s 0 i ^ "\n" in
                ignore (Unix.write_substring theirs reply 0 (String.length reply));
                serve ()
          end
        in
        serve ())
      ()
  in
  let c = Client.of_fd mine in
  for i = 1 to 200 do
    Alcotest.(check string) "reply matches request" (Printf.sprintf "ok req %d" i)
      (Client.call c (Printf.sprintf "req %d" i))
  done;
  Unix.shutdown mine Unix.SHUTDOWN_SEND;
  Thread.join server;
  Client.close c;
  Unix.close theirs;
  Alcotest.(check int) "served" 200 !served;
  Alcotest.(check int) "never two requests pending" 0 !overlaps;
  Alcotest.(check int) "max in flight" 1 c.Client.max_in_flight;
  Alcotest.(check int) "sent" 200 c.Client.sent;
  c.Client.in_flight <- 1;
  Alcotest.check_raises "a second call while one is in flight"
    (Invalid_argument "Client.call: a request is already in flight") (fun () ->
      ignore (Client.call c "req"))

let spans () =
  let sp = Spans.create () in
  let p = Spans.add sp ~name:"parent" ~parent:(-1) ~req:0 ~t0:0.0 ~t1:10.0 in
  ignore (Spans.add sp ~name:"child" ~parent:p ~req:0 ~t0:10.0 ~t1:13.0);
  ignore (Spans.add sp ~name:"child" ~parent:p ~req:0 ~t0:13.0 ~t1:15.0);
  for i = 1 to 2000 do
    ignore (Spans.add sp ~name:"many" ~parent:(-1) ~req:i ~t0:0.0 ~t1:1.0)
  done;
  Alcotest.(check (list (float 1e-12))) "self time" [ 5.0 ] (Spans.self_times sp "parent");
  Alcotest.(check int) "count" 2003 (Spans.count sp);
  Alcotest.(check (float 0.0)) "last" 2.0 (Spans.last_duration sp "child")

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentiles carry their count" `Quick pct;
          Alcotest.test_case "digest strips epochs" `Quick digest;
          Alcotest.test_case "mutations apply and keep the graph connected" `Quick mutations;
          Alcotest.test_case "client keeps one request in flight" `Quick one_in_flight;
          Alcotest.test_case "span self time" `Quick spans;
        ] );
    ]
