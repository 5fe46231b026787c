module Graph = Cr_graph.Graph
module Gio = Cr_graph.Gio

type command =
  | Route of int * int
  | Dist of int * int
  | Path of int * int
  | Mutate of Graph.mutation
  | Sync
  | Stats
  | Epoch
  | Help
  | Quit

let grammar =
  [
    ("route U V", "route a message from node U to node V on the serving epoch");
    ("dist U V", "serving-epoch distance between U and V");
    ("path U V", "oracle path from U to V on the serving epoch (estimate + walk)");
    ("setw U V W", "reweight the existing edge (U,V) to W");
    ("linkdown U V", "remove the existing edge (U,V)");
    ("linkup U V W", "insert the missing edge (U,V) with weight W");
    ("nodedown U", "crash node U: remove every incident edge");
    ("nodeup U", "recover node U (isolated; re-link with linkup)");
    ("sync", "block until every queued mutation is repaired");
    ("stats", "one strict-JSON line of daemon metrics");
    ("epoch", "serving epoch id and repair backlog");
    ("help", "this summary");
    ("quit", "shut the daemon down");
  ]

let parse ~lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    let tokens = String.split_on_char ' ' line |> List.filter (fun t -> t <> "") in
    let node what tok =
      match int_of_string_opt tok with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "line %d: malformed %s %S (expected an integer)" lineno what tok)
    in
    let pair ctor su sv =
      Result.bind (node "source" su) (fun u ->
          Result.map (fun v -> Some (ctor u v)) (node "destination" sv))
    in
    match tokens with
    | [ "route"; su; sv ] -> pair (fun u v -> Route (u, v)) su sv
    | [ "dist"; su; sv ] -> pair (fun u v -> Dist (u, v)) su sv
    | [ "path"; su; sv ] -> pair (fun u v -> Path (u, v)) su sv
    | ("setw" | "linkdown" | "linkup" | "nodedown" | "nodeup") :: _ -> (
        (* shared grammar with the journal: the daemon's wire spelling
           and the journal's cannot drift apart *)
        try Ok (Some (Mutate (Gio.mutation_of_tokens ~lineno tokens)))
        with Gio.Parse_error (l, msg) -> Error (Printf.sprintf "line %d: %s" l msg))
    | [ "sync" ] -> Ok (Some Sync)
    | [ "stats" ] -> Ok (Some Stats)
    | [ "epoch" ] -> Ok (Some Epoch)
    | [ "help" ] -> Ok (Some Help)
    | [ "quit" ] | [ "exit" ] -> Ok (Some Quit)
    | ("route" | "dist" | "path" | "sync" | "stats" | "epoch" | "help" | "quit" | "exit") :: _ ->
        Error
          (Printf.sprintf "line %d: wrong number of fields for %S command" lineno
             (List.hd tokens))
    | tok :: _ -> Error (Printf.sprintf "line %d: unknown command %S (try help)" lineno tok)
    | [] -> Ok None
