(* Tests for the observability layer (lib/obs) and its determinism
   contract: a trace sink never changes a routed walk (events are pure
   annotation), the ring buffer stays bounded, the profiler charges
   stages against a swappable clock, and every emitted JSON line is
   strict JSON. *)

module Rng = Cr_util.Rng
module Jsonl = Cr_util.Jsonl
module Trace = Cr_obs.Trace
module Ring = Cr_obs.Ring
module Counters = Cr_obs.Counters
module Profile = Cr_obs.Profile
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Generators = Cr_graph.Generators
module Fault_plan = Cr_resilience.Fault_plan
module Fsim = Cr_resilience.Fsim
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let prepared_graph ?(n = 80) ?(avg = 4.0) seed =
  let rng = Rng.create seed in
  let g = Graph.relabel rng (Generators.erdos_renyi rng ~n ~avg_degree:avg) in
  Apsp.compute (Graph.normalize g)

let check_valid_json label s =
  match Jsonl.validate s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invalid JSON %s in %s" label msg s

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_bounds () =
  let r = Ring.create ~capacity:3 in
  checki "empty" 0 (Ring.length r);
  Ring.push r 1;
  Ring.push r 2;
  checkb "partial to_list" true (Ring.to_list r = [ 1; 2 ]);
  Ring.push r 3;
  Ring.push r 4;
  Ring.push r 5;
  checki "stays at capacity" 3 (Ring.length r);
  checki "dropped counts overwrites" 2 (Ring.dropped r);
  checkb "keeps newest, oldest first" true (Ring.to_list r = [ 3; 4; 5 ]);
  let seen = ref [] in
  Ring.iter (fun x -> seen := x :: !seen) r;
  checkb "iter order" true (List.rev !seen = [ 3; 4; 5 ]);
  Ring.clear r;
  checki "clear empties" 0 (Ring.length r);
  checki "clear resets dropped" 0 (Ring.dropped r);
  let one = Ring.create ~capacity:1 in
  Ring.push one 10;
  Ring.push one 11;
  checkb "capacity 1 keeps last" true (Ring.to_list one = [ 11 ]);
  checkb "capacity 0 rejected" true
    (match Ring.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ring_concurrent_writers_wraparound () =
  (* several domains hammer one ring far past wraparound: the invariants
     (bounded length, pushes = retained + dropped, whole items only)
     must hold under any interleaving *)
  let capacity = 64 in
  let writers = 4 in
  let per_writer = 1000 in
  let r = Ring.create ~capacity in
  let spawned =
    Array.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per_writer - 1 do
              Ring.push r ((w * per_writer) + i)
            done))
  in
  Array.iter Domain.join spawned;
  let total = writers * per_writer in
  checki "full after wraparound" capacity (Ring.length r);
  checki "dropped accounts for every push" (total - capacity) (Ring.dropped r);
  let retained = Ring.to_list r in
  checki "to_list returns the retained items" capacity (List.length retained);
  (* every retained item is a whole pushed value, never torn state *)
  List.iter
    (fun x -> checkb "valid item" true (x >= 0 && x < total))
    retained;
  (* each writer's items appear in its own push order *)
  for w = 0 to writers - 1 do
    let mine = List.filter (fun x -> x / per_writer = w) retained in
    checkb
      (Printf.sprintf "writer %d order preserved" w)
      true
      (List.sort compare mine = mine)
  done;
  (* no item appears twice among the retained slots *)
  checki "retained items distinct" capacity
    (List.length (List.sort_uniq compare retained))

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counters () =
  let c = Counters.create () in
  checki "untouched is 0" 0 (Counters.get c "nope");
  Counters.incr c "b";
  Counters.add c "a" 5;
  Counters.incr c "b";
  checki "incr accumulates" 2 (Counters.get c "b");
  checki "add accumulates" 5 (Counters.get c "a")

let test_counters_parallel () =
  let c = Counters.create () in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Counters.incr c "hits"
            done))
  in
  Array.iter Domain.join domains;
  checki "4000 increments survive" 4000 (Counters.get c "hits")

(* ------------------------------------------------------------------ *)
(* Profile *)

let test_profile_fake_clock () =
  Cr_obs.Clock.with_fake (fun advance ->
      let p = Profile.create () in
      let x = Profile.time p "apsp" (fun () -> advance 2.0; 41 + 1) in
      checki "time returns the result" 42 x;
      Profile.time p "tables" (fun () -> advance 1.0);
      Profile.time p "apsp" (fun () -> advance 0.5);
      Profile.add_bits p "tables" 1024;
      checkb "stages in first-touch order with summed seconds" true
        (Profile.stages p = [ ("apsp", 2.5, 0); ("tables", 1.0, 1024) ]);
      checkb "total seconds" true (Profile.total_seconds p = 3.5);
      checki "total bits" 1024 (Profile.total_bits p);
      (* an exception still charges the stage *)
      (try Profile.time p "tables" (fun () -> advance 4.0; failwith "boom")
       with Failure _ -> ());
      checkb "exception charged" true
        (match Profile.stages p with [ _; ("tables", 5.0, 1024) ] -> true | _ -> false);
      let rendered = Profile.report ~title:"build" p in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      checkb "report mentions stages" true
        (contains rendered "apsp" && contains rendered "tables");
      check_valid_json "profile json" (Profile.to_json p))

(* ------------------------------------------------------------------ *)
(* Trace events *)

let all_events =
  [
    Trace.Phase_start { phase = 1; kind = Trace.Sparse; center = 7; bound = 2 };
    Trace.Phase_start { phase = 2; kind = Trace.Dense; center = 3; bound = 4 };
    Trace.Phase_start { phase = 4; kind = Trace.Global; center = 0; bound = 3 };
    Trace.Phase_start { phase = 1; kind = Trace.Vicinity; center = 5; bound = 0 };
    Trace.Phase_start { phase = 2; kind = Trace.Pivot; center = 9; bound = 1 };
    Trace.Phase_start { phase = 2; kind = Trace.Color; center = 9; bound = 6 };
    Trace.Phase_start { phase = 1; kind = Trace.Direct; center = 2; bound = 0 };
    Trace.Climb { phase = 1; from_node = 4; to_node = 7; hops = 3 };
    Trace.Tree_step { round = 2; from_node = 7; to_node = 12 };
    Trace.Phase_result { phase = 1; found = false; rounds = 2 };
    Trace.Stall { at = 3; toward = 4 };
    Trace.Deflect { at = 3; via = 6 };
    Trace.Replan { at = 6 };
    Trace.Deliver { phase = 2; node = 12 };
    Trace.No_route { phase = 4 };
  ]

let test_event_encodings () =
  List.iter
    (fun ev ->
      check_valid_json (Trace.label ev) (Trace.event_to_json ev);
      checkb "human line is non-empty" true (String.length (Trace.event_to_string ev) > 0);
      (* the JSON carries the label as its "event" field *)
      let j = Trace.event_to_json ev in
      checkb "json starts with event label" true
        (String.length j > 12 && String.sub j 0 10 = "{\"event\":\""))
    all_events;
  checks "label stable" "phase_start" (Trace.label (List.hd all_events));
  checks "kind names" "sparse" (Trace.kind_to_string Trace.Sparse)

let test_tee () =
  let a = ref 0 and b = ref 0 in
  let sink = Trace.tee (fun _ -> incr a) (fun _ -> incr b) in
  List.iter sink all_events;
  checki "left sink sees all" (List.length all_events) !a;
  checki "right sink sees all" (List.length all_events) !b

(* ------------------------------------------------------------------ *)
(* Determinism: traced walk == untraced walk, for every scheme family *)

let schemes_under_test apsp =
  [
    Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:3 ~seed:2 ()) apsp);
    Baseline_tz.build ~k:3 ~seed:5 apsp;
    Baseline_s3.build ~seed:5 apsp;
    Baseline_full.build apsp;
    Baseline_tree.build apsp;
    Baseline_exp.build ~k:3 ~seed:5 apsp;
    Baseline_ap.build ~k:3 apsp;
  ]

let test_trace_does_not_change_walks () =
  let apsp = prepared_graph 11 in
  let n = Graph.n (Apsp.graph apsp) in
  let rng = Rng.create 99 in
  let pairs = Array.init 60 (fun _ -> (Rng.int rng n, Rng.int rng n)) in
  List.iter
    (fun (sch : Scheme.t) ->
      let traced_events = ref 0 in
      Array.iter
        (fun (s, d) ->
          let plain = sch.Scheme.route s d in
          let events = ref [] in
          let traced = sch.Scheme.route ~trace:(fun ev -> events := ev :: !events) s d in
          Alcotest.(check (list int))
            (Printf.sprintf "%s walk %d->%d" sch.Scheme.name s d)
            plain.Scheme.walk traced.Scheme.walk;
          checkb "delivered agrees" true (plain.Scheme.delivered = traced.Scheme.delivered);
          checkb "phases agree" true (plain.Scheme.phases_used = traced.Scheme.phases_used);
          traced_events := !traced_events + List.length !events;
          (* every event serializes to strict JSON *)
          List.iter (fun ev -> check_valid_json sch.Scheme.name (Trace.event_to_json ev)) !events;
          (* a delivered route always narrates its delivery *)
          if plain.Scheme.delivered then
            checkb
              (Printf.sprintf "%s %d->%d emits deliver" sch.Scheme.name s d)
              true
              (List.exists (function Trace.Deliver _ -> true | _ -> false) !events))
        pairs;
      checkb (sch.Scheme.name ^ " emitted events") true (!traced_events > 0))
    (schemes_under_test apsp)

let test_agm06_trace_shape () =
  let apsp = prepared_graph 13 in
  let n = Graph.n (Apsp.graph apsp) in
  let sch = Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:3 ~seed:2 ()) apsp) in
  let checked = ref 0 in
  for s = 0 to min 9 (n - 1) do
    let d = (s + (n / 2)) mod n in
    if s <> d then begin
      let events = ref [] in
      let r = sch.Scheme.route ~trace:(fun ev -> events := ev :: !events) s d in
      let events = List.rev !events in
      if r.Scheme.delivered then begin
        incr checked;
        (* phases narrate in order: each Phase_start's phase is weakly
           increasing, and the delivery phase matches the route *)
        let phases =
          List.filter_map (function Trace.Phase_start { phase; _ } -> Some phase | _ -> None) events
        in
        checkb "at least one phase" true (phases <> []);
        checkb "phases weakly increasing" true
          (fst
             (List.fold_left (fun (ok, prev) p -> (ok && p >= prev, p)) (true, 0) phases));
        match List.rev events with
        | Trace.Deliver { phase; _ } :: _ ->
            checki "deliver phase = phases_used" r.Scheme.phases_used phase
        | _ -> Alcotest.fail "last event of a delivered route must be deliver"
      end
    end
  done;
  checkb "exercised some delivered routes" true (!checked > 0)

let test_fsim_trace_events () =
  let apsp = prepared_graph 17 in
  let g = Apsp.graph apsp in
  let n = Graph.n g in
  let sch = Baseline_full.build apsp in
  let policy = Fsim.default_policy ~max_retries:4 g in
  let plan = Fault_plan.independent_edges ~seed:3 g ~rate:0.15 in
  let stalls = ref 0 and deflects = ref 0 and replans = ref 0 in
  for s = 0 to min 19 (n - 1) do
    let d = (s + (n / 2)) mod n in
    let plain = Fsim.run policy plan apsp sch ~src:s ~dst:d in
    let traced =
      Fsim.run
        ~trace:(fun ev ->
          match ev with
          | Trace.Stall _ -> incr stalls
          | Trace.Deflect _ -> incr deflects
          | Trace.Replan _ -> incr replans
          | _ -> ())
        policy plan apsp sch ~src:s ~dst:d
    in
    Alcotest.(check (list int)) "fsim walk unchanged" plain.Fsim.walk traced.Fsim.walk;
    checkb "fsim outcome unchanged" true (plain.Fsim.outcome = traced.Fsim.outcome);
    checkb "fsim retries unchanged" true (plain.Fsim.retries = traced.Fsim.retries)
  done;
  checkb "faults at 15% produce stalls" true (!stalls > 0);
  checkb "deflections bounded by stalls" true (!deflects <= !stalls);
  checkb "replans bounded by deflections" true (!replans <= !deflects)

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "bounds and eviction" `Quick test_ring_bounds;
          Alcotest.test_case "concurrent writers wraparound" `Quick
            test_ring_concurrent_writers_wraparound;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counters;
          Alcotest.test_case "parallel increments" `Quick test_counters_parallel;
        ] );
      ("profile", [ Alcotest.test_case "fake clock" `Quick test_profile_fake_clock ]);
      ( "trace",
        [
          Alcotest.test_case "event encodings" `Quick test_event_encodings;
          Alcotest.test_case "tee" `Quick test_tee;
          Alcotest.test_case "walks identical traced vs untraced" `Quick
            test_trace_does_not_change_walks;
          Alcotest.test_case "agm06 trace shape" `Quick test_agm06_trace_shape;
          Alcotest.test_case "fsim stall/deflect/replan" `Quick test_fsim_trace_events;
        ] );
    ]
