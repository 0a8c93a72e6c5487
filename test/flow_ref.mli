(** Allocating node-split flow network — a test oracle.

    Menger's theorem decides the paper's §2 properties (superconcentrator,
    rearrangeable) by unit-vertex-capacity max-flow.  This module builds
    the node-split network afresh on every call, exactly as the library
    did before {!Ftcsn_flow.Menger.Workspace} became its only flow
    network.  test_flow pins the workspace against it, and
    {!Strip_ref}'s probes run on it.

    Do not extend or optimise this module — its value is that it does
    not move. *)

val max_vertex_disjoint :
  ?forbidden:(int -> bool) ->
  Ftcsn_graph.Digraph.t ->
  sources:int array ->
  sinks:int array ->
  int
(** Maximum number of directed paths from [sources] to [sinks] that are
    pairwise vertex-disjoint (endpoints included).  [forbidden] vertices
    cannot be used at all. *)

val vertex_disjoint_paths :
  ?forbidden:(int -> bool) ->
  Ftcsn_graph.Digraph.t ->
  sources:int array ->
  sinks:int array ->
  int list list
(** A maximum family of vertex-disjoint paths, each a vertex list from a
    source to a sink. *)

val min_vertex_cut_size :
  ?forbidden:(int -> bool) ->
  Ftcsn_graph.Digraph.t ->
  sources:int array ->
  sinks:int array ->
  int
(** Size of a minimum vertex cut (counting cut vertices; equals
    {!max_vertex_disjoint} by Menger).  Lemma 3 of the paper applies this
    duality to faulty-vertex cut sets in directed grids. *)

val connect :
  ?forbidden:(int -> bool) ->
  Ftcsn_networks.Network.t ->
  input_indices:int array ->
  output_indices:int array ->
  int list list option
(** Vertex-disjoint paths joining the chosen r inputs (by index) to the
    chosen r outputs in some order; [None] if fewer than r disjoint paths
    exist.  @raise Invalid_argument when the index sets differ in size. *)

val max_throughput :
  ?forbidden:(int -> bool) ->
  Ftcsn_networks.Network.t ->
  input_indices:int array ->
  output_indices:int array ->
  int
(** Largest number of vertex-disjoint paths between the chosen sets. *)
