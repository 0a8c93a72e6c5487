(** Batch routing for superconcentrator-style requests.

    A superconcentrator request (paper, §2) names a set of r inputs and a
    set of r outputs but leaves the pairing free, so — unlike specified
    pairings — it is exactly solvable by max-flow (Menger).  Used by the
    task-queue example [Co], the property deciders and the Monte-Carlo
    probes.

    {b Greedy certificate.}  The paper routes its network by "a greedy
    application of a standard path-finding algorithm" (§4).  When the
    network stages ({!Staged_route.create} returns a router), every query
    first routes input [S.(j)] to output [T.(j)] for each
    [j < min(|S|, |T|)] on the staged dive, each path avoiding the
    vertices of the earlier ones and every forbidden vertex, terminals
    included.  By Menger, [min(|S|, |T|)] vertex-disjoint paths are a
    flow of that value, and no flow exceeds it, so a greedy success
    answers the query exactly, without the flow arena.  At the first pair
    that blocks, Dinic runs on the re-armed arena as if the greedy pass
    had not happened.  The value is exact either way; only the work
    changes.  A network that does not stage goes straight to Dinic: a
    certificate there would need plain BFS routes, which cost about as
    much as Dinic itself.

    The [flow_route.probes] and [flow_route.certified] counters of
    {!Ftcsn_obs.Metrics.default} count every query and those the
    certificate answered; their difference is the number of Dinic runs. *)

type ws
(** A {!Ftcsn_flow.Menger.Workspace} flow arena over one network, built
    on the first query the certificate does not answer, plus the greedy
    certificate's router and scratch when the network stages; reused
    across throughput queries (single-domain state). *)

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
    edges and non-[forbidden] vertices.  Allocation-free, whether the
    certificate or Dinic answers (a [~forbidden:f] argument still boxes
    [Some f] at the call site). *)

val max_throughput_cert_ws :
  ?forbidden:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ws ->
  input_indices:int array ->
  output_indices:int array ->
  used_vertices:int array ->
  used_edges:int array ->
  int * int * int
(** {!max_throughput_ws} that also extracts a disjoint-path certificate
    of the value: the greedy paths when they answer, else Dinic's unit
    flow (see {!Ftcsn_flow.Menger.Workspace.max_vertex_disjoint_cert}).
    The vertices and edge ids on the paths are written to the prefixes
    of [used_vertices] / [used_edges] (size ≥ the graph's vertex count)
    and the result is [(value, used_vertex_count, used_edge_count)].
    While every recorded vertex and edge stays unmasked, a repeat query
    with the same index sets provably returns the same full value —
    CRN ε-sweeps use this to skip re-probing between nearby grid
    points. *)
