(** Menger certificates: maximum sets of vertex-disjoint directed paths.

    The definitions of rearrangeable networks and superconcentrators
    (paper, §2) are statements about vertex-disjoint paths; by Menger's
    theorem they are decided by unit-vertex-capacity max-flow, which this
    module implements by the standard node-splitting reduction. *)

(** Reusable node-split flow arena for repeated disjoint-path counting on
    one graph — the backend of the superconcentrator deciders and the
    allocation-free Monte-Carlo probes.  The arena is built once over the
    full graph plus a fixed universe of candidate sources and sinks; each
    query re-arms arc capacities in place (masked vertices, edges and
    unselected terminals get capacity 0) and reruns Dinic.  A
    zero-capacity arc carries no flow, so the returned value is the
    maximum on the correspondingly pruned graph.  Workspaces are
    single-domain state.

    [Ftcsn_routing.Flow_route] calls this arena only when its greedy
    path certificate falls short; the arena itself always runs Dinic. *)
module Workspace : sig
  type t

  val create :
    Ftcsn_graph.Digraph.t -> sources:int array -> sinks:int array -> t
  (** Build the arena; [sources]/[sinks] fix the universe of candidate
      terminals, addressed by their positions in these arrays. *)

  val max_vertex_disjoint :
    ?forbidden:(int -> bool) ->
    ?edge_ok:(int -> bool) ->
    t ->
    source_slots:int array ->
    sink_slots:int array ->
    int
  (** Maximum number of pairwise vertex-disjoint directed paths
      (endpoints included) from the sources at [source_slots] (positions
      in the creation-time [sources]) to the sinks at [sink_slots],
      avoiding [forbidden] vertices and edges with [edge_ok eid = false].
      Allocation-free: arming runs index loops, and Dinic keeps its BFS
      queue next to its level and arc-cursor arrays. *)

  val max_vertex_disjoint_cert :
    ?forbidden:(int -> bool) ->
    ?edge_ok:(int -> bool) ->
    t ->
    source_slots:int array ->
    sink_slots:int array ->
    used_vertices:int array ->
    used_edges:int array ->
    int * int * int
  (** Same value as {!max_vertex_disjoint}, and additionally writes the
      path certificate of the computed flow — the graph vertices and
      edge ids carrying a flow unit — into the prefixes of
      [used_vertices] / [used_edges] (each must hold at least the graph's
      vertex count; a unit flow uses at most one out-edge per used
      vertex).  Returns [(value, used_vertex_count, used_edge_count)].

      The certificate is a family of [value] vertex-disjoint paths, so a
      caller holding a full-success certificate ([value] = number of
      armed source slots) may skip a later query with the {e same} slot
      sets whenever every recorded vertex and edge is still unmasked:
      the paths remain feasible, hence the answer is again [value]. *)
end
