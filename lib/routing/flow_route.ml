module Network = Ftcsn_networks.Network
module Menger = Ftcsn_flow.Menger

(* One Menger arena per network, re-armed per query.  Input/output
   indices address the network's terminal arrays directly, which are
   exactly the arena's source/sink universes, so no vertex resolution
   (and no allocation) happens per call. *)
type ws = Menger.Workspace.t

let create_ws net =
  Menger.Workspace.create net.Network.graph ~sources:net.Network.inputs
    ~sinks:net.Network.outputs

let max_throughput_ws ?forbidden ?edge_ok ws ~input_indices ~output_indices =
  Menger.Workspace.max_vertex_disjoint ?forbidden ?edge_ok ws
    ~source_slots:input_indices ~sink_slots:output_indices

let max_throughput_cert_ws ?forbidden ?edge_ok ws ~input_indices
    ~output_indices ~used_vertices ~used_edges =
  Menger.Workspace.max_vertex_disjoint_cert ?forbidden ?edge_ok ws
    ~source_slots:input_indices ~sink_slots:output_indices ~used_vertices
    ~used_edges
