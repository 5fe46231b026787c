(* In-memory span recorder for the traced runs.

   A span is (id, parent, request id, name, start, end); times are
   monotonic seconds.  Spans are appended to growable columns and
   written out once, when the run ends, so recording costs two clock
   reads and a few array stores. *)

let now () = 1e-9 *. Int64.to_float (Monotonic_clock.now ())

type t = {
  mutable names : string array;
  mutable parent : int array;
  mutable req : int array;
  mutable t0 : Float.Array.t;
  mutable t1 : Float.Array.t;
  mutable len : int;
}

let create () =
  let cap = 1024 in
  {
    names = Array.make cap "";
    parent = Array.make cap (-1);
    req = Array.make cap (-1);
    t0 = Float.Array.make cap 0.0;
    t1 = Float.Array.make cap 0.0;
    len = 0;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let ext a fill = Array.init cap (fun i -> if i < t.len then a.(i) else fill) in
  let fext a = Float.Array.init cap (fun i -> if i < t.len then Float.Array.get a i else 0.0) in
  t.names <- ext t.names "";
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req (-1);
  t.t0 <- fext t.t0;
  t.t1 <- fext t.t1

(* Records a finished span and returns its id. *)
let add t ~name ~parent ~req ~t0 ~t1 =
  if t.len = Array.length t.names then grow t;
  let id = t.len in
  t.names.(id) <- name;
  t.parent.(id) <- parent;
  t.req.(id) <- req;
  Float.Array.set t.t0 id t0;
  Float.Array.set t.t1 id t1;
  t.len <- id + 1;
  id

(* An open span, for a parent whose children are recorded before it
   ends; [stop] closes it. *)
let start t ~name ~parent ~req = add t ~name ~parent ~req ~t0:(now ()) ~t1:nan

let stop t id = Float.Array.set t.t1 id (now ())

(* [time t ~name ~parent ~req f] runs [f] inside a span. *)
let time t ~name ~parent ~req f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  ignore (add t ~name ~parent ~req ~t0 ~t1);
  r

let duration t id = Float.Array.get t.t1 id -. Float.Array.get t.t0 id

(* Durations in seconds of every span with this name. *)
let durations t name =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.names.(i) = name then acc := duration t i :: !acc
  done;
  !acc

(* Duration of the latest span with this name. *)
let last_duration t name =
  let rec find i =
    if i < 0 then invalid_arg ("Spans.last_duration: no span " ^ name)
    else if t.names.(i) = name then duration t i
    else find (i - 1)
  in
  find (t.len - 1)

(* Self time of each span named [name]: its duration minus the
   durations of its direct children. *)
let self_times t name =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.names.(i) = name then acc := (duration t i -. child.(i)) :: !acc
  done;
  !acc

let count t = t.len

let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\treq\tname\tstart_s\tend_s\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" i t.parent.(i) t.req.(i) t.names.(i)
      (Float.Array.get t.t0 i) (Float.Array.get t.t1 i)
  done;
  close_out oc
