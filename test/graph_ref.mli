(** Graph rebuilds and structure checks that only tests use.

    The library masks edges instead of rebuilding subgraphs; the
    rebuild-based oracles ({!Strip_ref}, the flow oracle on a stripped
    graph) still need the rebuilt graph, the staging tests check
    strictness edge by edge, and the banyan-class tests count paths. *)

val subgraph_by_edges_map :
  Ftcsn_graph.Digraph.t -> keep:(int -> bool) -> Ftcsn_graph.Digraph.t * int array
(** Same vertex set, only the edges whose id satisfies [keep], renumbered
    densely in ascending old-id order; the array maps new edge ids to old
    ones. *)

val subgraph_by_edges :
  Ftcsn_graph.Digraph.t -> keep:(int -> bool) -> Ftcsn_graph.Digraph.t
(** The graph of {!subgraph_by_edges_map}. *)

val is_strictly_staged : Ftcsn_graph.Digraph.t -> Ftcsn_graph.Staged.t -> bool
(** True iff every edge joins a staged vertex to the next stage. *)

val path_counts : Ftcsn_graph.Digraph.t -> int -> int array
(** [path_counts g src]: the number of directed paths from [src] to each
    vertex, by DP over a topological order.  Raises [Invalid_argument] on
    a cyclic graph. *)
