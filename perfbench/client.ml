(* A closed-loop protocol client: one request in flight, always.

   [call] writes one line and returns only once its reply line has been
   read; it is the only way to send, so a second request can never
   overtake the first.  With pipelining, latency would measure the
   window rather than one request. *)

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;  (** bytes read and not yet returned *)
  mutable len : int;
  mutable in_flight : int;
  mutable max_in_flight : int;
  mutable sent : int;  (** request lines written *)
}

let of_fd fd = { fd; buf = Bytes.create 4096; len = 0; in_flight = 0; max_in_flight = 0; sent = 0 }

let connect_unix path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  of_fd fd

let rec write_all t s off =
  if off < String.length s then
    match Unix.write_substring t.fd s off (String.length s - off) with
    | n -> write_all t s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all t s off

let newline t =
  let rec go i = if i >= t.len then None else if Bytes.get t.buf i = '\n' then Some i else go (i + 1) in
  go 0

let rec read_line t =
  match newline t with
  | Some i ->
      let line = Bytes.sub_string t.buf 0 i in
      Bytes.blit t.buf (i + 1) t.buf 0 (t.len - i - 1);
      t.len <- t.len - i - 1;
      line
  | None ->
      if t.len = Bytes.length t.buf then t.buf <- Bytes.extend t.buf 0 t.len;
      (match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
      | 0 -> raise End_of_file
      | n -> t.len <- t.len + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      read_line t

let call t line =
  if t.in_flight <> 0 then invalid_arg "Client.call: a request is already in flight";
  t.in_flight <- 1;
  t.max_in_flight <- max t.max_in_flight t.in_flight;
  write_all t (line ^ "\n") 0;
  t.sent <- t.sent + 1;
  let reply = read_line t in
  t.in_flight <- 0;
  reply

let close t = Unix.close t.fd
