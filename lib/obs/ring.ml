(* Bounded ring buffer.  Keeps the most recent [capacity] items, counts
   what it had to drop, never grows.

   The items live in a plain ['a array], made on the first push from
   the item itself, so a float ring is a flat float array and a push
   retains nothing beyond its slot.  [clear] drops the buffer.

   A single mutex serializes push/clear/to_list so multiple domains can
   share one ring: pushes interleave in some order, but the ring's
   invariants (filled <= capacity, pushed = filled + dropped, to_list
   returns whole items oldest-first) hold under any interleaving. *)

type 'a t = {
  lock : Mutex.t;
  capacity : int;
  mutable buf : 'a array; (* empty until the first push *)
  mutable next : int; (* slot to write *)
  mutable filled : int; (* items currently held, <= capacity *)
  mutable dropped : int; (* items overwritten since creation/clear *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { lock = Mutex.create (); capacity; buf = [||]; next = 0; filled = 0; dropped = 0 }

let locked t f = Mutex.protect t.lock f

let length t = locked t (fun () -> t.filled)

let dropped t = locked t (fun () -> t.dropped)

let push t x =
  locked t (fun () ->
      let cap = t.capacity in
      if Array.length t.buf = 0 then t.buf <- Array.make cap x;
      if t.filled = cap then t.dropped <- t.dropped + 1 else t.filled <- t.filled + 1;
      t.buf.(t.next) <- x;
      t.next <- (t.next + 1) mod cap)

let clear t =
  locked t (fun () ->
      t.buf <- [||];
      t.next <- 0;
      t.filled <- 0;
      t.dropped <- 0)

(* oldest first *)
let to_list t =
  locked t (fun () ->
      let cap = t.capacity in
      let start = (t.next - t.filled + cap) mod cap in
      List.init t.filled (fun i -> t.buf.((start + i) mod cap)))

let iter f t = List.iter f (to_list t)
