(* Construction profiling: timers on the process clock (Clock) and bit
   counters around the preprocessing stages (APSP, decomposition,
   landmark hierarchy, tree and cover builds, table sweeps), reported
   per stage in seconds and bits.  Stages keep insertion order, so
   reports read like the pipeline. *)

type stage = { name : string; mutable seconds : float; mutable bits : int; mutable calls : int }

type t = { mutable stages : stage list (* reversed insertion order *) }

let create () = { stages = [] }

let stage t name =
  match List.find_opt (fun s -> s.name = name) t.stages with
  | Some s -> s
  | None ->
      let s = { name; seconds = 0.0; bits = 0; calls = 0 } in
      t.stages <- s :: t.stages;
      s

let add_seconds t name secs =
  let s = stage t name in
  s.seconds <- s.seconds +. secs;
  s.calls <- s.calls + 1

let add_bits t name bits = (stage t name).bits <- (stage t name).bits + bits

let time t name f =
  let t0 = !Clock.now () in
  Fun.protect ~finally:(fun () -> add_seconds t name (!Clock.now () -. t0)) f

let stages t = List.rev_map (fun s -> (s.name, s.seconds, s.bits)) t.stages

let total_seconds t = List.fold_left (fun acc s -> acc +. s.seconds) 0.0 t.stages

let total_bits t = List.fold_left (fun acc s -> acc + s.bits) 0 t.stages

let report ?title t =
  let module T = Cr_util.Ascii_table in
  let table =
    T.create ?title
      [ ("stage", T.Left); ("seconds", T.Right); ("share", T.Right); ("bits", T.Right) ]
  in
  let total = total_seconds t in
  List.iter
    (fun (name, secs, bits) ->
      T.add_row table
        [
          name;
          Printf.sprintf "%.4f" secs;
          (if total > 0.0 then Printf.sprintf "%.1f%%" (100.0 *. secs /. total) else "-");
          (if bits = 0 then "-" else T.fmt_bits bits);
        ])
    (stages t);
  T.add_sep table;
  T.add_row table
    [ "total"; Printf.sprintf "%.4f" total; "";
      (if total_bits t = 0 then "-" else T.fmt_bits (total_bits t)) ];
  T.render table

let to_json t =
  let module J = Cr_util.Jsonl in
  let stage_obj (name, secs, bits) =
    J.obj [ ("stage", J.str name); ("seconds", J.float secs); ("bits", J.int bits) ]
  in
  J.obj
    [
      ("total_seconds", J.float (total_seconds t));
      ("total_bits", J.int (total_bits t));
      ("stages", "[" ^ String.concat "," (List.map stage_obj (stages t)) ^ "]");
    ]
