exception Parse_error of int * string

let () =
  Printexc.register_printer (function
    | Parse_error (line, msg) -> Some (Printf.sprintf "Gio.Parse_error: line %d: %s" line msg)
    | _ -> None)

let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "graph %d %d\n" (Graph.n g) (Graph.m g));
  for u = 0 to Graph.n g - 1 do
    if Graph.name_of g u <> u then
      Buffer.add_string buf (Printf.sprintf "name %d %d\n" u (Graph.name_of g u))
  done;
  Graph.iter_edges g (fun u v w ->
      Buffer.add_string buf (Printf.sprintf "edge %d %d %.17g\n" u v w));
  Buffer.contents buf

let of_string s =
  let fail lineno fmt = Printf.ksprintf (fun msg -> raise (Parse_error (lineno, msg))) fmt in
  let parse_int lineno what tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail lineno "malformed %s %S (expected an integer)" what tok
  in
  let parse_float lineno what tok =
    match float_of_string_opt tok with
    | Some v -> v
    | None -> fail lineno "malformed %s %S (expected a number)" what tok
  in
  let lines = String.split_on_char '\n' s in
  let n = ref (-1) in
  let names = ref [] in
  (* (lineno, u, v, w) — kept for range re-checks once [n] is known *)
  let edges = ref [] in
  let parse_line i line =
    let lineno = i + 1 in
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else begin
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "graph"; sn; sm ] ->
          if !n >= 0 then fail lineno "duplicate graph header";
          let hn = parse_int lineno "node count" sn in
          ignore (parse_int lineno "edge count" sm);
          if hn < 0 then fail lineno "negative node count %d" hn;
          n := hn
      | [ "name"; su; sname ] ->
          let u = parse_int lineno "node index" su in
          let nm = parse_int lineno "identifier" sname in
          names := (lineno, u, nm) :: !names
      | [ "edge"; su; sv; sw ] ->
          let u = parse_int lineno "endpoint" su in
          let v = parse_int lineno "endpoint" sv in
          let w = parse_float lineno "weight" sw in
          if u = v then fail lineno "self-loop at node %d" u;
          if not (Float.is_finite w) || w <= 0.0 then
            fail lineno "edge weight %g must be positive and finite" w;
          edges := (lineno, u, v, w) :: !edges
      | ("graph" | "name" | "edge") :: _ as toks ->
          fail lineno "wrong number of fields for %S record" (List.hd toks)
      | _ -> fail lineno "unrecognized record %S" line
    end
  in
  List.iteri parse_line lines;
  if !n < 0 then raise (Parse_error (0, "missing graph header"));
  let n = !n in
  let check_index lineno what u =
    if u < 0 || u >= n then fail lineno "%s %d out of range [0, %d)" what u n
  in
  let name_arr = Array.init n (fun i -> i) in
  List.iter
    (fun (lineno, u, nm) ->
      check_index lineno "node index" u;
      name_arr.(u) <- nm)
    !names;
  let edge_list =
    List.rev_map
      (fun (lineno, u, v, w) ->
        check_index lineno "edge endpoint" u;
        check_index lineno "edge endpoint" v;
        (u, v, w))
      !edges
  in
  try Graph.create ~names:name_arr ~n edge_list
  with Invalid_argument msg -> raise (Parse_error (0, msg))

(* ---- mutation records -------------------------------------------------

   One mutation in the spelling of [Graph.mutation_to_string].  The
   daemon protocol and the daemon's journal both parse with
   [mutation_of_tokens], each passing its own 1-based line number, so
   wire and journal grammar cannot drift and a malformed record names
   the line it came from. *)

let mutation_of_tokens ~lineno tokens =
  let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error (lineno, msg))) fmt in
  let parse_int what tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail "malformed %s %S (expected an integer)" what tok
  in
  let parse_weight tok =
    match float_of_string_opt tok with
    | Some w when Float.is_finite w && w > 0.0 -> w
    | Some w -> fail "mutation weight %g must be positive and finite" w
    | None -> fail "malformed weight %S (expected a number)" tok
  in
  match tokens with
  | [ "setw"; su; sv; sw ] ->
      Graph.Set_weight (parse_int "endpoint" su, parse_int "endpoint" sv, parse_weight sw)
  | [ "linkdown"; su; sv ] -> Graph.Link_down (parse_int "endpoint" su, parse_int "endpoint" sv)
  | [ "linkup"; su; sv; sw ] ->
      Graph.Link_up (parse_int "endpoint" su, parse_int "endpoint" sv, parse_weight sw)
  | [ "nodedown"; su ] -> Graph.Node_down (parse_int "node" su)
  | [ "nodeup"; su ] -> Graph.Node_up (parse_int "node" su)
  | ("setw" | "linkdown" | "linkup" | "nodedown" | "nodeup") :: _ as toks ->
      fail "wrong number of fields for %S record" (List.hd toks)
  | tok :: _ -> fail "unrecognized mutation %S" tok
  | [] -> fail "empty mutation record"

let mutation_of_string ?(lineno = 1) line =
  let tokens = String.split_on_char ' ' (String.trim line) |> List.filter (fun t -> t <> "") in
  mutation_of_tokens ~lineno tokens

(* ---- snapshot codec ----------------------------------------------------

   A snapshot is a checkpoint of the daemon's durable state: the graph
   with every acknowledged mutation applied, plus the journal position
   that graph corresponds to (record count and byte offset), plus the
   serving epoch id at checkpoint time.  The whole body is covered by a
   CRC32 in the header line, so a snapshot interrupted mid-write (or
   bit-rotted on disk) parses as invalid and recovery falls back to an
   older checkpoint — it can never silently load half a graph. *)

type snapshot = {
  epoch : int;
  journal_records : int;
  journal_offset : int;
  graph : Graph.t;
}

let snapshot_version = 1

let snapshot_to_string s =
  let body = to_string s.graph in
  Printf.sprintf "snapshot %d %d %d %d %s\n%s" snapshot_version s.epoch s.journal_records
    s.journal_offset
    (Cr_util.Crc.to_hex (Cr_util.Crc.string body))
    body

let snapshot_of_string text =
  let fail lineno fmt = Printf.ksprintf (fun msg -> raise (Parse_error (lineno, msg))) fmt in
  let header, body =
    match String.index_opt text '\n' with
    | Some i -> (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))
    | None -> fail 1 "missing snapshot body"
  in
  match String.split_on_char ' ' (String.trim header) |> List.filter (fun t -> t <> "") with
  | [ "snapshot"; sv; se; sr; so; scrc ] ->
      let parse_int what tok =
        match int_of_string_opt tok with
        | Some v when v >= 0 -> v
        | Some v -> fail 1 "negative %s %d" what v
        | None -> fail 1 "malformed %s %S (expected an integer)" what tok
      in
      let v = parse_int "snapshot version" sv in
      if v <> snapshot_version then fail 1 "unsupported snapshot version %d (expected %d)" v snapshot_version;
      let epoch = parse_int "epoch" se in
      let journal_records = parse_int "journal record count" sr in
      let journal_offset = parse_int "journal offset" so in
      let expected =
        match Cr_util.Crc.of_hex scrc with
        | Some c -> c
        | None -> fail 1 "malformed snapshot checksum %S" scrc
      in
      let actual = Cr_util.Crc.string body in
      if actual <> expected then
        fail 1 "snapshot checksum mismatch (header %s, body %s): torn or corrupt write"
          scrc (Cr_util.Crc.to_hex actual);
      let graph =
        (* body line numbers are offset by the header line *)
        try of_string body with Parse_error (l, msg) -> raise (Parse_error (l + 1, msg))
      in
      { epoch; journal_records; journal_offset; graph }
  | "snapshot" :: _ -> fail 1 "wrong number of fields for snapshot header"
  | _ -> fail 1 "missing snapshot header"

let save g path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = really_input_string ic len in
      of_string buf)
