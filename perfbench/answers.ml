(* Reply lines of the daemon protocol: field access, epoch handling and
   the answer digest.

   Epoch ids say which serving epoch answered, which depends on when a
   read raced a repair; everything else in an answer is a function of
   the graph and the request.  The digest therefore strips every
   [epoch=N] token, so two runs of the same inputs agree exactly. *)

let tokens line = String.split_on_char ' ' line

let field line key =
  let prefix = key ^ "=" in
  let pl = String.length prefix in
  List.find_map
    (fun tok ->
      if String.length tok > pl && String.sub tok 0 pl = prefix then
        Some (String.sub tok pl (String.length tok - pl))
      else None)
    (tokens line)

(* The [epoch=N] token: last on every answer line, before the backlog on
   a [sync] reply. *)
let epoch line =
  let n = String.length line in
  let rec find i =
    if i < 0 then None
    else if String.sub line i 7 = " epoch=" then begin
      let j = ref (i + 7) in
      while !j < n && line.[!j] <> ' ' do
        incr j
      done;
      int_of_string_opt (String.sub line (i + 7) (!j - i - 7))
    end
    else find (i - 1)
  in
  find (n - 7)

let strip_epoch line =
  tokens line
  |> List.filter (fun tok -> not (String.length tok >= 6 && String.sub tok 0 6 = "epoch="))
  |> String.concat " "

let is_ok line = String.length line >= 3 && String.sub line 0 3 = "ok "

(* An order-sensitive digest over the stripped lines. *)
let digest lines =
  let b = Buffer.create 4096 in
  List.iter
    (fun l ->
      Buffer.add_string b (strip_epoch l);
      Buffer.add_char b '\n')
    lines;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Numeric fields of the flat JSON objects that [stats] and the drain
   line carry: ["key":123]. *)
let json_number json key =
  let pat = "\"" ^ key ^ "\":" in
  let pl = String.length pat and n = String.length json in
  let numeric = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
  let rec find i =
    if i + pl > n then None
    else if String.sub json i pl = pat then begin
      let j = ref (i + pl) in
      while !j < n && numeric json.[!j] do
        incr j
      done;
      Some (String.sub json (i + pl) (!j - i - pl))
    end
    else find (i + 1)
  in
  find 0

let json_int json key = Option.bind (json_number json key) int_of_string_opt

let json_float json key = Option.bind (json_number json key) float_of_string_opt
