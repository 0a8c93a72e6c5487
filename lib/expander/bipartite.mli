(** Bipartite directed graphs with distinguished inlets and outlets.

    The paper's building block (§6): a (c, c′, t)-expanding graph is a
    bipartite graph in which every set of c inlets is joined to at least c′
    of the t outlets.  This module is the common carrier for the explicit
    and random constructions and their certification. *)

type t = {
  inlets : int;
  outlets : int;
  adj : int array array;  (** [adj.(i)] = outlets adjacent to inlet [i] *)
}

val make : inlets:int -> outlets:int -> adj:int array array -> t
(** Validates ranges and sorts/dedups each adjacency list. *)

val degree : t -> int -> int

val max_degree : t -> int

val edge_count : t -> int

val neighbourhood_size : t -> int array -> int
(** |Γ(S)| for a set of inlets S. *)

val to_digraph : t -> Ftcsn_graph.Digraph.t * int array * int array
(** Embed as a digraph: inlet vertices first, then outlets; returns
    (graph, inlet ids, outlet ids). *)

val reverse : t -> t
(** Swap the roles of inlets and outlets (mirror image). *)
