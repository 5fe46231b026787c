type align = Left | Right

type row = Cells of string list | Sep

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
}

let create ?title columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let ncols t = List.length t.headers

let add_row t cells =
  let n = ncols t in
  let len = List.length cells in
  if len > n then invalid_arg "Ascii_table.add_row: too many cells";
  let padded = if len < n then cells @ List.init (n - len) (fun _ -> "") else cells in
  t.rows <- Cells padded :: t.rows

let add_sep t = t.rows <- Sep :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  let update cells =
    List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) cells
  in
  List.iter (function Cells c -> update c | Sep -> ()) rows;
  let buf = Buffer.create 1024 in
  let pad align w s =
    let fill = String.make (w - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let sep_line () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let align = List.nth t.aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad align widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  sep_line ();
  emit_cells t.headers;
  sep_line ();
  List.iter (function Cells c -> emit_cells c | Sep -> sep_line ()) rows;
  sep_line ();
  Buffer.contents buf

let print t = print_string (render t)

let fmt_float ?(dec = 2) x = Printf.sprintf "%.*f" dec x


let fmt_bits b =
  let f = float_of_int b in
  if f >= 1_048_576.0 then Printf.sprintf "%.2f Mbit" (f /. 1_048_576.0)
  else if f >= 1024.0 then Printf.sprintf "%.2f Kbit" (f /. 1024.0)
  else Printf.sprintf "%d bit" b
