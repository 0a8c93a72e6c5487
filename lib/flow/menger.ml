module Digraph = Ftcsn_graph.Digraph

module Workspace = struct
  (* Node splitting: vertex v becomes v_in = 2v and v_out = 2v + 1 with a
     unit arc between them; graph edge (u, v) becomes u_out -> v_in.  The
     super-source feeds each source's in-node, sinks drain from out-nodes,
     so endpoint disjointness is enforced too.  Every arc is added once
     at creation with capacity 0; each query re-arms capacities
     ([Maxflow.set_cap] also zeroes the residual twins) and runs Dinic
     again.  A masked-out arc (capacity 0) carries no flow, so the value
     is the maximum on the correspondingly pruned graph. *)
  type t = {
    net : Maxflow.t;
    n : int;
    super_source : int;
    super_sink : int;
    split_arcs : int array;
    edge_arcs : int array;
    source_arcs : int array;
    sink_arcs : int array;
  }

  let create g ~sources ~sinks =
    let n = Digraph.vertex_count g in
    let m = Digraph.edge_count g in
    let net = Maxflow.create ~n:((2 * n) + 2) in
    let super_source = 2 * n and super_sink = (2 * n) + 1 in
    let split_arcs =
      Array.init n (fun v ->
          Maxflow.add_edge net ~src:(2 * v) ~dst:((2 * v) + 1) ~cap:0)
    in
    let edge_arcs = Array.make m (-1) in
    Digraph.iter_edges g (fun ~eid ~src ~dst ->
        edge_arcs.(eid) <-
          Maxflow.add_edge net ~src:((2 * src) + 1) ~dst:(2 * dst) ~cap:0);
    let source_arcs =
      Array.map
        (fun s -> Maxflow.add_edge net ~src:super_source ~dst:(2 * s) ~cap:0)
        sources
    in
    let sink_arcs =
      Array.map
        (fun t -> Maxflow.add_edge net ~src:((2 * t) + 1) ~dst:super_sink ~cap:0)
        sinks
    in
    { net; n; super_source; super_sink; split_arcs; edge_arcs; source_arcs; sink_arcs }

  (* index loops throughout: closures over [t] or the masks would
     allocate on every query *)
  let arm ~forbidden ~edge_ok t ~source_slots ~sink_slots =
    for v = 0 to t.n - 1 do
      Maxflow.set_cap t.net t.split_arcs.(v) (if forbidden v then 0 else 1)
    done;
    for e = 0 to Array.length t.edge_arcs - 1 do
      Maxflow.set_cap t.net t.edge_arcs.(e) (if edge_ok e then 1 else 0)
    done;
    for i = 0 to Array.length t.source_arcs - 1 do
      Maxflow.set_cap t.net t.source_arcs.(i) 0
    done;
    for i = 0 to Array.length t.sink_arcs - 1 do
      Maxflow.set_cap t.net t.sink_arcs.(i) 0
    done;
    for i = 0 to Array.length source_slots - 1 do
      Maxflow.set_cap t.net t.source_arcs.(source_slots.(i)) 1
    done;
    for i = 0 to Array.length sink_slots - 1 do
      Maxflow.set_cap t.net t.sink_arcs.(sink_slots.(i)) 1
    done

  let max_vertex_disjoint ?(forbidden = fun _ -> false)
      ?(edge_ok = fun _ -> true) t ~source_slots ~sink_slots =
    arm ~forbidden ~edge_ok t ~source_slots ~sink_slots;
    Maxflow.max_flow t.net ~source:t.super_source ~sink:t.super_sink

  let max_vertex_disjoint_cert ?(forbidden = fun _ -> false)
      ?(edge_ok = fun _ -> true) t ~source_slots ~sink_slots ~used_vertices
      ~used_edges =
    arm ~forbidden ~edge_ok t ~source_slots ~sink_slots;
    let value =
      Maxflow.max_flow t.net ~source:t.super_source ~sink:t.super_sink
    in
    (* Read the certificate off the unit flow: a vertex is on some path
       iff its split arc carries flow, an edge iff its arc does. *)
    let nv = ref 0 in
    for v = 0 to t.n - 1 do
      if Maxflow.flow_on t.net t.split_arcs.(v) > 0 then begin
        used_vertices.(!nv) <- v;
        incr nv
      end
    done;
    let ne = ref 0 in
    for e = 0 to Array.length t.edge_arcs - 1 do
      if Maxflow.flow_on t.net t.edge_arcs.(e) > 0 then begin
        used_edges.(!ne) <- e;
        incr ne
      end
    done;
    (value, !nv, !ne)
end
