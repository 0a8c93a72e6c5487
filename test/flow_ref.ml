(* The ALLOCATING node-split flow network, kept as a test oracle: every
   call builds a fresh Maxflow instance over the graph (forbidden
   vertices simply left out) instead of re-arming a prebuilt workspace.
   test_flow pins [Menger.Workspace] against it, Strip_ref's probes run
   on it, and its path extraction checks the workspace's answers.

   Do not "improve" this module; that would erase the oracle. *)

module Digraph = Ftcsn_graph.Digraph
module Maxflow = Ftcsn_flow.Maxflow
module Network = Ftcsn_networks.Network

(* Node splitting: vertex v becomes v_in = 2v and v_out = 2v + 1 with a
   unit arc between them; graph edge (u, v) becomes u_out -> v_in.  The
   super-source feeds each source's in-node, sinks drain from out-nodes,
   so endpoint disjointness is enforced too. *)
let build ?(forbidden = fun _ -> false) g ~sources ~sinks =
  let n = Digraph.vertex_count g in
  let m = Digraph.edge_count g in
  let net = Maxflow.create ~n:((2 * n) + 2) in
  let super_source = 2 * n and super_sink = (2 * n) + 1 in
  let split_arcs = Array.make n (-1) in
  let edge_arcs = Array.make m (-1) in
  for v = 0 to n - 1 do
    if not (forbidden v) then
      split_arcs.(v) <- Maxflow.add_edge net ~src:(2 * v) ~dst:((2 * v) + 1) ~cap:1
  done;
  Digraph.iter_edges g (fun ~eid ~src ~dst ->
      if (not (forbidden src)) && not (forbidden dst) then
        edge_arcs.(eid) <-
          Maxflow.add_edge net ~src:((2 * src) + 1) ~dst:(2 * dst) ~cap:1);
  Array.iter
    (fun s ->
      if not (forbidden s) then
        ignore (Maxflow.add_edge net ~src:super_source ~dst:(2 * s) ~cap:1))
    sources;
  Array.iter
    (fun t ->
      if not (forbidden t) then
        ignore (Maxflow.add_edge net ~src:((2 * t) + 1) ~dst:super_sink ~cap:1))
    sinks;
  (net, super_source, super_sink, split_arcs, edge_arcs)

let max_vertex_disjoint ?forbidden g ~sources ~sinks =
  let net, s, t, _, _ = build ?forbidden g ~sources ~sinks in
  Maxflow.max_flow net ~source:s ~sink:t

let vertex_disjoint_paths ?forbidden g ~sources ~sinks =
  let net, s, t, split_arcs, edge_arcs = build ?forbidden g ~sources ~sinks in
  let _value = Maxflow.max_flow net ~source:s ~sink:t in
  let n = Digraph.vertex_count g in
  let vertex_used v =
    split_arcs.(v) >= 0 && Maxflow.flow_on net split_arcs.(v) > 0
  in
  let edge_used e = edge_arcs.(e) >= 0 && Maxflow.flow_on net edge_arcs.(e) > 0 in
  let is_sink = Array.make n false in
  Array.iter (fun v -> is_sink.(v) <- true) sinks;
  (* Each used vertex carries exactly one unit, so it has at most one
     flow-carrying out-edge; following those edges threads paths exactly. *)
  let edge_consumed = Array.make (Digraph.edge_count g) false in
  let next v =
    Digraph.fold_out g v ~init:None ~f:(fun acc ~dst ~eid ->
        match acc with
        | Some _ -> acc
        | None ->
            if edge_used eid && not edge_consumed.(eid) then begin
              edge_consumed.(eid) <- true;
              Some dst
            end
            else None)
  in
  let paths = ref [] in
  Array.iter
    (fun src ->
      if vertex_used src then begin
        (* Follow flow-carrying edges; a unit with no outgoing flow edge
           must drain into the super-sink, i.e. the walk ended at a sink. *)
        let rec walk v acc =
          match next v with
          | Some w -> walk w (v :: acc)
          | None -> if is_sink.(v) then Some (List.rev (v :: acc)) else None
        in
        match walk src [] with
        | Some p -> paths := p :: !paths
        | None -> ()
      end)
    sources;
  List.rev !paths

let min_vertex_cut_size ?forbidden g ~sources ~sinks =
  max_vertex_disjoint ?forbidden g ~sources ~sinks


let resolve net ~input_indices ~output_indices =
  ( Array.map (fun i -> net.Network.inputs.(i)) input_indices,
    Array.map (fun o -> net.Network.outputs.(o)) output_indices )

let connect ?forbidden net ~input_indices ~output_indices =
  if Array.length input_indices <> Array.length output_indices then
    invalid_arg "Flow_ref.connect: arity";
  let sources, sinks = resolve net ~input_indices ~output_indices in
  let paths =
    vertex_disjoint_paths ?forbidden net.Network.graph ~sources ~sinks
  in
  if List.length paths = Array.length input_indices then Some paths else None

let max_throughput ?forbidden net ~input_indices ~output_indices =
  let sources, sinks = resolve net ~input_indices ~output_indices in
  max_vertex_disjoint ?forbidden net.Network.graph ~sources ~sinks
