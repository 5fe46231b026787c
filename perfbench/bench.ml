(* perfbench: one benchmark run.

     bench --workload W --seed N --seconds S --trace 0|1 --crt PATH

   Prints human-readable lines (provenance, digest, every metric with
   its unit) and, last, one JSON result line.  Exits non-zero without a
   result when the run itself cannot complete. *)

open Perfbench.Common

let usage = "bench --workload churn-repair|batch-eval --seed N --seconds S --trace 0|1 --crt PATH"

let parse argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let crt = ref "" and commit = ref "unknown" and source_digest = ref "unknown" in
  Arg.parse_argv argv
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--crt", Arg.Set_string crt, "PATH to crt.exe");
      ("--commit", Arg.Set_string commit, "ID");
      ("--source-digest", Arg.Set_string source_digest, "HEX");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 then raise (Arg.Bad "--seconds must be >= 1");
  if !crt = "" then raise (Arg.Bad "--crt is required");
  let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    crt = abs !crt;
    commit = !commit;
    source_digest = !source_digest;
  }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let o =
    try parse Sys.argv with
    | Arg.Bad msg | Arg.Help msg ->
        prerr_endline msg;
        exit 2
  in
  let run =
    match o.workload with
    | "churn-repair" -> Churn_repair.run
    | "batch-eval" -> Batch_eval.run
    | w ->
        Printf.eprintf "bench: unknown workload %S\n%s\n" w usage;
        exit 2
  in
  (* Everything a run writes lives under .perfbench_run in the
     checkout and is removed when the run ends. *)
  let dir =
    Printf.sprintf ".perfbench_run/%s-%d-%d" o.workload o.seed (Unix.getpid ())
  in
  let top = Sys.getcwd () in
  (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  Sys.chdir dir;
  let cleanup () =
    Perfbench.Proc.kill_all ();
    Cr_util.Domain_pool.shutdown_shared ();
    Sys.chdir top;
    rm_rf dir
  in
  (* A run has 180 s; one that would overrun, or is told to stop, is
     stopped here with its daemons and prints no result. *)
  let stop why =
    Sys.Signal_handle
      (fun _ ->
        prerr_endline ("bench: " ^ why);
        Perfbench.Proc.kill_all ();
        Sys.chdir top;
        rm_rf dir;
        exit 1)
  in
  Sys.set_signal Sys.sigalrm (stop "the run did not finish within 170 s");
  Sys.set_signal Sys.sigterm (stop "terminated");
  Sys.set_signal Sys.sigint (stop "interrupted");
  ignore (Unix.alarm 170);
  match run o with
  | ms, attempted, failed ->
      cleanup ();
      List.iter (fun f -> log "check failed: %s" f) (List.rev !failures);
      print_metrics ms;
      print_endline
        (result_line ~correct:(!failures = [] && failed = 0) ~attempted ~failed ms)
  | exception e ->
      cleanup ();
      Printf.eprintf "bench: %s\n" (Printexc.to_string e);
      exit 1
