type route = { walk : int list; delivered : bool; phases_used : int }

type t = {
  name : string;
  graph : Cr_graph.Graph.t;
  storage : Storage.t;
  header_bits : int;
  route : ?trace:Cr_obs.Trace.sink -> int -> int -> route;
}

let default_header_bits ~n = (2 * Cr_util.Bits.id_bits ~n) + 16

let label_header_bits ~n =
  let lg = Cr_util.Bits.id_bits ~n in
  default_header_bits ~n + (lg * lg)

