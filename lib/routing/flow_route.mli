(** Batch routing for superconcentrator-style requests.

    A superconcentrator request (paper, §2) names a set of r inputs and a
    set of r outputs but leaves the pairing free, so — unlike specified
    pairings — it is exactly solvable by max-flow (Menger).  Used by the
    task-queue example [Co], the property deciders and the Monte-Carlo
    probes. *)

type ws
(** A prebuilt {!Ftcsn_flow.Menger.Workspace} flow arena over one
    network, reused across throughput queries (single-domain state). *)

val create_ws : Ftcsn_networks.Network.t -> ws

val max_throughput_ws :
  ?forbidden:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ws ->
  input_indices:int array ->
  output_indices:int array ->
  int
(** Largest number of vertex-disjoint paths between the inputs at
    [input_indices] and the outputs at [output_indices] (positions in the
    network's terminal arrays), on the graph restricted to [edge_ok]
    edges and non-[forbidden] vertices.  Allocation-free. *)

val max_throughput_cert_ws :
  ?forbidden:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ws ->
  input_indices:int array ->
  output_indices:int array ->
  used_vertices:int array ->
  used_edges:int array ->
  int * int * int
(** {!max_throughput_ws} that also extracts the disjoint-path
    certificate (see {!Ftcsn_flow.Menger.Workspace.max_vertex_disjoint_cert}):
    the vertices and edge ids carrying flow are written to the prefixes
    of [used_vertices] / [used_edges] (size ≥ the graph's vertex count)
    and the result is [(value, used_vertex_count, used_edge_count)].
    While every recorded vertex and edge stays unmasked, a repeat query
    with the same index sets provably returns the same full value —
    CRN ε-sweeps use this to skip re-probing between nearby grid
    points. *)
