(* Named monotonic counters, safe to bump from several domains at once.
   A mutex guards the name table; each counter itself is an Atomic so
   the hot increment path after first touch is lock-free. *)

type t = { mu : Mutex.t; table : (string, int Atomic.t) Hashtbl.t }

let create () = { mu = Mutex.create (); table = Hashtbl.create 16 }

let cell t name =
  match Hashtbl.find_opt t.table name with
  | Some c -> c
  | None ->
      Mutex.protect t.mu (fun () ->
          match Hashtbl.find_opt t.table name with
          | Some c -> c
          | None ->
              let c = Atomic.make 0 in
              Hashtbl.replace t.table name c;
              c)

let add t name by = ignore (Atomic.fetch_and_add (cell t name) by)

let incr t name = add t name 1

let get t name = match Hashtbl.find_opt t.table name with Some c -> Atomic.get c | None -> 0
