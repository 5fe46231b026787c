type t = {
  keys : float array; (* element -> priority; the caller's array *)
  mutable size : int;
  elts : int array; (* heap slots -> element *)
  pos : int array; (* element -> heap slot, or -1 *)
}

let create (keys : float array) =
  let n = max (Array.length keys) 1 in
  { keys; size = 0; elts = Array.make n (-1); pos = Array.make n (-1) }

let is_empty h = h.size = 0

let size h = h.size

let mem h x = x >= 0 && x < Array.length h.pos && h.pos.(x) >= 0

let swap h i j =
  let ei = h.elts.(i) and ej = h.elts.(j) in
  h.elts.(i) <- ej;
  h.elts.(j) <- ei;
  h.pos.(ej) <- i;
  h.pos.(ei) <- j

(* Strict total order: priority, then element index.  Equal priorities
   are common in Dijkstra (unit-ish weights); breaking those ties by
   element makes [pop_min] return the unique minimum of the current
   contents no matter what insertion order shaped the layout, so the
   pop sequence is a pure function of what was inserted — the property
   [Apsp.repair] needs to share untouched sources across mutations.
   The keys are annotated: a comparison the compiler cannot see is on
   floats is the polymorphic one, which boxes both. *)
let before (keys : float array) x y =
  let kx = keys.(x) and ky = keys.(y) in
  kx < ky || (kx = ky && x < y)

let lt h i j = before h.keys h.elts.(i) h.elts.(j)

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && lt h l !smallest then smallest := l;
  if r < h.size && lt h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let insert h x =
  if x < 0 || x >= Array.length h.keys then invalid_arg "Heap.insert: out of range";
  if h.pos.(x) >= 0 then invalid_arg "Heap.insert: already present";
  let i = h.size in
  h.size <- i + 1;
  h.elts.(i) <- x;
  h.pos.(x) <- i;
  sift_up h i

let insert_or_decrease h x = if mem h x then sift_up h h.pos.(x) else insert h x

let pop_min h =
  if h.size = 0 then raise Not_found;
  let x = h.elts.(0) in
  let last = h.size - 1 in
  swap h 0 last;
  h.size <- last;
  h.pos.(x) <- -1;
  if last > 0 then sift_down h 0;
  x
