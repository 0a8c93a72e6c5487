module Digraph = Ftcsn_graph.Digraph

let subgraph_by_edges_map g ~keep =
  let kept =
    Array.of_list (List.filter keep (List.init (Digraph.edge_count g) Fun.id))
  in
  ( Digraph.of_edges ~n:(Digraph.vertex_count g)
      (Array.map (Digraph.edge_endpoints g) kept),
    kept )

let subgraph_by_edges g ~keep = fst (subgraph_by_edges_map g ~keep)

let is_strictly_staged g (t : Ftcsn_graph.Staged.t) =
  let stage = t.Ftcsn_graph.Staged.stage in
  let ok = ref true in
  Digraph.iter_edges g (fun ~eid:_ ~src ~dst ->
      if stage.(src) < 0 || stage.(dst) <> stage.(src) + 1 then ok := false);
  !ok

let path_counts g src =
  match Ftcsn_graph.Traverse.topological_order g with
  | None -> invalid_arg "Graph_ref.path_counts: cyclic graph"
  | Some order ->
      let counts = Array.make (Digraph.vertex_count g) 0 in
      counts.(src) <- 1;
      Array.iter
        (fun v ->
          if counts.(v) > 0 then
            Digraph.iter_out g v (fun ~dst ~eid:_ ->
                counts.(dst) <- counts.(dst) + counts.(v)))
        order;
      counts
