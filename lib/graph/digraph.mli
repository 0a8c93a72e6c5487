(** Directed multigraphs in frozen CSR form.

    Vertices are dense ints [0, n); edges carry dense ids [0, m) so that
    per-switch failure states (paper, §2: one edge = one switch) can live in
    plain arrays indexed by edge id.  Graphs are built once through
    {!Builder} and then immutable, which keeps the simulation inner loops
    allocation-free. *)

type t

(** {1 Construction} *)

module Builder : sig
  type graph := t

  type t

  val create : ?expected_vertices:int -> unit -> t

  val add_vertex : t -> int
  (** Returns the fresh vertex id (dense, starting at 0). *)

  val add_vertices : t -> int -> int
  (** [add_vertices b k] adds [k] vertices and returns the id of the first. *)

  val vertex_count : t -> int

  val add_edge : t -> src:int -> dst:int -> int
  (** Returns the fresh edge id.  Parallel edges and self-loops are allowed
      (they arise naturally from contraction quotients). *)

  val edge_count : t -> int

  val freeze : t -> graph
end

val of_edges : n:int -> (int * int) array -> t
(** [of_edges ~n edges] freezes a graph with [n] vertices; edge ids follow
    array order. *)

(** {1 Observation} *)

val vertex_count : t -> int

val edge_count : t -> int

val edge_src : t -> int -> int

val edge_dst : t -> int -> int

val edge_endpoints : t -> int -> int * int

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val iter_out : t -> int -> (dst:int -> eid:int -> unit) -> unit
(** Iterate outgoing edges of a vertex. *)

val iter_in : t -> int -> (src:int -> eid:int -> unit) -> unit

val fold_out : t -> int -> init:'a -> f:('a -> dst:int -> eid:int -> 'a) -> 'a

val fold_in : t -> int -> init:'a -> f:('a -> src:int -> eid:int -> 'a) -> 'a

val iter_edges : t -> (eid:int -> src:int -> dst:int -> unit) -> unit

val max_degree : t -> int
(** Maximum of in+out degree over all vertices — the "adjacent to at most
    twelve edges" quantity in the paper's Lemma 3. *)

(** {1 Derived graphs} *)

val reverse : t -> t
(** Mirror image in the paper's sense: edge directions flipped.  Edge ids
    are preserved. *)

val quotient : t -> label:int array -> classes:int -> drop_self_loops:bool -> t * int array
(** [quotient g ~label ~classes ~drop_self_loops] contracts each label class
    to a single vertex (closed-failure semantics).  Returns the quotient and
    an array mapping old edge ids to new ones ([-1] for dropped loops). *)

(** {1 Raw CSR access}

    The frozen adjacency arrays themselves, for inner loops that cannot
    afford the per-edge closure of {!iter_out}/{!iter_in} (the
    allocation-free routers index them directly).  The arrays are shared
    with the graph — callers must not mutate them.  Layout: the out-edges
    of vertex [v] occupy slots [out_off.(v) .. out_off.(v+1) - 1] of
    [out_dst]/[out_eid], in ascending edge-id order (the order
    {!iter_out} visits); [in_off]/[in_src]/[in_eid] mirror this for
    in-edges. *)
module Csr : sig
  val out_off : t -> int array
  val out_dst : t -> int array
  val out_eid : t -> int array
  val in_off : t -> int array
  val in_src : t -> int array
  val in_eid : t -> int array
end
