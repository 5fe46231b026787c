module Graph = Cr_graph.Graph
module Gio = Cr_graph.Gio
module Crc = Cr_util.Crc

(* The daemon's durable mutation log.

   PR 6's journal was a bare out_channel of mutation lines: replayable,
   but with no way to tell a torn final write from corruption, and no
   stated durability point.  This module gives each record a CRC32 and
   a sequence number, and pins the contract the daemon acks against:
   [append] returns only once the record is flushed per the fsync
   policy, so an [ok mutate] reply means the mutation survives a crash
   of the process ([Off]/[Batch]: OS buffer) or of the machine
   ([Every]: fsync'd).

   Record format, one per line (comments and blanks allowed):

     r <crc32hex> <seq> <mutation>

   with the CRC taken over "<seq> <mutation>".  Legacy journals (bare
   mutation lines, the PR 6 format) still load.  The reader stops at
   the first invalid record — torn tail, checksum mismatch, bad
   sequence — and reports it as a *truncation point*, never an
   exception: an interrupted append damages at most the record being
   written, and everything before it is intact by construction. *)

type fsync = Every | Batch of int | Off

let fsync_to_string = function
  | Every -> "every"
  | Batch n -> Printf.sprintf "batch:%d" n
  | Off -> "off"

let default_batch = 32

let fsync_of_string s =
  match String.split_on_char ':' s with
  | [ "every" ] -> Ok Every
  | [ "off" ] -> Ok Off
  | [ "batch" ] -> Ok (Batch default_batch)
  | [ "batch"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Batch n)
      | _ -> Error (Printf.sprintf "bad batch interval %S (expected an integer >= 1)" n))
  | _ -> Error (Printf.sprintf "unknown fsync policy %S (try every, batch[:N] or off)" s)

(* ---- writer ----------------------------------------------------------- *)

type writer = {
  path : string;
  oc : out_channel;
  fd : Unix.file_descr;
  fsync : fsync;
  mutable records : int;  (* seq of the last record written *)
  mutable bytes : int;  (* file offset after the last append *)
  mutable unsynced : int;  (* records since the last fsync (Batch) *)
  mutable fsync_failures : int;
  mutable closed : bool;
}

let header = "# crt journal v2: r <crc32hex> <seq> <mutation>"

let create ?(fsync = Every) ?(append = false) ?(seq = 0) path =
  let flags =
    if append then [ Open_wronly; Open_append; Open_creat ]
    else [ Open_wronly; Open_trunc; Open_creat ]
  in
  let oc = open_out_gen flags 0o644 path in
  let fd = Unix.descr_of_out_channel oc in
  let bytes = if append then (Unix.fstat fd).Unix.st_size else 0 in
  let w =
    { path; oc; fd; fsync; records = seq; bytes; unsynced = 0; fsync_failures = 0;
      closed = false }
  in
  if not append then begin
    output_string oc (header ^ "\n");
    flush oc;
    w.bytes <- String.length header + 1
  end;
  w

let records w = w.records

let bytes w = w.bytes

let fsync_hook : (Unix.file_descr -> unit) ref = ref Unix.fsync

let fsync_failures w = w.fsync_failures

let do_fsync w =
  (* a failed fsync breaks the promise the next [ok] reply makes: the
     record may not survive a machine crash.  Swallowing it silently
     (the pre-PR-10 behavior) turned that into an invisible durability
     hole, so every failure is counted (surfaced in daemon stats) and
     warned about on stderr.  Serving continues: the record is still in
     the OS buffer, so process death alone loses nothing. *)
  try !fsync_hook w.fd
  with Unix.Unix_error (err, _, _) ->
    w.fsync_failures <- w.fsync_failures + 1;
    Printf.eprintf
      "crt: journal %s: fsync failed: %s (acked mutations may not survive a machine crash)\n%!"
      w.path (Unix.error_message err)

let append w mu =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  let seq = w.records + 1 in
  let payload = Printf.sprintf "%d %s" seq (Graph.mutation_to_string mu) in
  let line = Printf.sprintf "r %s %s\n" (Crc.to_hex (Crc.string payload)) payload in
  output_string w.oc line;
  Crashpoint.hit Crashpoint.Pre_flush;
  flush w.oc;
  (match w.fsync with
  | Every -> do_fsync w
  | Batch n ->
      w.unsynced <- w.unsynced + 1;
      if w.unsynced >= n then begin
        do_fsync w;
        w.unsynced <- 0
      end
  | Off -> ());
  w.records <- seq;
  w.bytes <- w.bytes + String.length line;
  Crashpoint.hit Crashpoint.Post_flush_pre_ack

let sync w =
  if not w.closed then begin
    flush w.oc;
    do_fsync w;
    w.unsynced <- 0
  end

let close w =
  if not w.closed then begin
    flush w.oc;
    (match w.fsync with Every | Batch _ -> do_fsync w | Off -> ());
    w.closed <- true;
    close_out w.oc
  end

let abandon w =
  (* simulated SIGKILL: drop the channel buffer on the floor and close
     the descriptor — whatever was not yet flushed never reaches disk,
     exactly as if the process had died.  The out_channel is left
     unflushed on purpose; exit-time flush_all ignores the dead fd. *)
  if not w.closed then begin
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end

(* ---- reader ----------------------------------------------------------- *)

type truncation = { lineno : int; byte : int; reason : string }

type read_result = {
  mutations : Graph.mutation list;
  read_records : int;
  valid_bytes : int;
  truncation : truncation option;
}

let load ?(offset = 0) ?expect_seq path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let len = String.length text in
  if offset > len then
    {
      mutations = [];
      read_records = 0;
      valid_bytes = len;
      truncation =
        Some
          {
            lineno = 1;
            byte = len;
            reason = Printf.sprintf "journal is %d bytes, shorter than offset %d" len offset;
          };
    }
  else begin
    let mutations = ref [] in
    let read_records = ref 0 in
    let valid = ref offset in
    let next_seq = ref expect_seq in
    let truncation = ref None in
    let pos = ref offset in
    let lineno = ref 1 in
    let stop ~byte reason = truncation := Some { lineno = !lineno; byte; reason } in
    let record line =
      (* checksummed records dispatch on the "r " prefix (no mutation
         keyword collides); anything else is a legacy bare mutation *)
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | "r" :: hex :: ((_ :: _ :: _ as payload_toks)) -> (
          let payload = String.concat " " payload_toks in
          match Crc.of_hex hex with
          | None -> Error (Printf.sprintf "malformed record checksum %S" hex)
          | Some expected ->
              let actual = Crc.string payload in
              if actual <> expected then
                Error
                  (Printf.sprintf
                     "record checksum mismatch (header %s, payload %s): torn or corrupt write"
                     hex (Crc.to_hex actual))
              else begin
                let seq_tok = List.hd payload_toks in
                match int_of_string_opt seq_tok with
                | None -> Error (Printf.sprintf "malformed record sequence %S" seq_tok)
                | Some seq -> (
                    match !next_seq with
                    | Some e when seq <> e ->
                        Error (Printf.sprintf "record sequence %d, expected %d" seq e)
                    | _ -> (
                        match
                          Gio.mutation_of_tokens ~lineno:!lineno (List.tl payload_toks)
                        with
                        | mu ->
                            next_seq := Some (seq + 1);
                            Ok mu
                        | exception Gio.Parse_error (_, msg) -> Error msg))
              end)
      | "r" :: _ -> Error "wrong number of fields for checksummed record"
      | _ -> (
          match Gio.mutation_of_string ~lineno:!lineno line with
          | mu ->
              next_seq := Option.map (fun e -> e + 1) !next_seq;
              Ok mu
          | exception Gio.Parse_error (_, msg) -> Error msg)
    in
    let continue = ref true in
    while !continue && !pos < len do
      match String.index_from_opt text !pos '\n' with
      | None ->
          (* no terminating newline: the classic torn final write *)
          stop ~byte:!pos "torn record (missing trailing newline)";
          continue := false
      | Some nl ->
          let line = String.trim (String.sub text !pos (nl - !pos)) in
          if line = "" || line.[0] = '#' then begin
            pos := nl + 1;
            valid := !pos;
            incr lineno
          end
          else begin
            match record line with
            | Ok mu ->
                mutations := mu :: !mutations;
                incr read_records;
                pos := nl + 1;
                valid := !pos;
                incr lineno
            | Error reason ->
                stop ~byte:!pos reason;
                continue := false
          end
    done;
    {
      mutations = List.rev !mutations;
      read_records = !read_records;
      valid_bytes = !valid;
      truncation = !truncation;
    }
  end

let truncate_torn path (r : read_result) =
  match r.truncation with
  | None -> ()
  | Some _ -> Unix.truncate path r.valid_bytes
