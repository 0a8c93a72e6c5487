module Digraph = Ftcsn_graph.Digraph

type t = {
  graph : Digraph.t;
  vertex_image : int array;
  gadget : Sp_network.built;
  original_edges : int;
}

let substitute g ~gadget =
  let { Sp_network.graph = gg; input = gin; output = gout } = gadget in
  let gn = Digraph.vertex_count gg in
  let n = Digraph.vertex_count g in
  let b = Digraph.Builder.create () in
  let vertex_image = Array.init n (fun _ -> Digraph.Builder.add_vertex b) in
  (* For each original edge, instantiate the gadget's internal vertices
     (all but its two terminals) and copy its edges with endpoints mapped.
     Gadget edges are emitted in gadget edge-id order so composite edge
     ids are [k * gadget_size + j]. *)
  Digraph.iter_edges g (fun ~eid:_ ~src ~dst ->
      let local = Array.make gn (-1) in
      local.(gin) <- vertex_image.(src);
      local.(gout) <- vertex_image.(dst);
      for v = 0 to gn - 1 do
        if local.(v) = -1 then local.(v) <- Digraph.Builder.add_vertex b
      done;
      for ge = 0 to Digraph.edge_count gg - 1 do
        let gs, gd = Digraph.edge_endpoints gg ge in
        ignore (Digraph.Builder.add_edge b ~src:local.(gs) ~dst:local.(gd))
      done);
  {
    graph = Digraph.Builder.freeze b;
    vertex_image;
    gadget;
    original_edges = Digraph.edge_count g;
  }

let logical_rates ?jobs ?trace ~trials ~rng ~eps_open ~eps_close t =
  let gg = t.gadget.Sp_network.graph in
  let gin = t.gadget.Sp_network.input and gout = t.gadget.Sp_network.output in
  let counts =
    Ftcsn_sim.Trials.map_reduce ?jobs ?trace
      ~label:"substitution.logical_rates" ~trials ~rng
      ~init:(fun () -> Scratch.create gg)
      ~create_acc:(fun () -> [| 0; 0 |])
      ~trial:(fun sc acc sub ->
        let slice = Scratch.pattern sc in
        Fault.sample_into sub ~eps_open ~eps_close slice;
        if Survivor.shorted_by_closure_into sc slice ~a:gin ~b:gout then
          acc.(1) <- acc.(1) + 1
        else if
          not (Survivor.connected_ignoring_opens_into sc slice ~a:gin ~b:gout)
        then acc.(0) <- acc.(0) + 1)
      ~combine:(fun global chunk ->
        global.(0) <- global.(0) + chunk.(0);
        global.(1) <- global.(1) + chunk.(1))
      ()
  in
  ( Ftcsn_sim.Trials.of_counts ~successes:counts.(0) ~trials,
    Ftcsn_sim.Trials.of_counts ~successes:counts.(1) ~trials )

let logical_pattern t pattern =
  let gg = t.gadget.Sp_network.graph in
  let gin = t.gadget.Sp_network.input and gout = t.gadget.Sp_network.output in
  let gm = Digraph.edge_count gg in
  if Array.length pattern <> t.original_edges * gm then
    invalid_arg "Substitution.logical_pattern: pattern arity";
  let sc = Scratch.create gg in
  let slice = Scratch.pattern sc in
  Array.init t.original_edges (fun k ->
      Array.blit pattern (k * gm) slice 0 gm;
      if Survivor.shorted_by_closure_into sc slice ~a:gin ~b:gout then
        Fault.Closed_failure
      else if
        not (Survivor.connected_ignoring_opens_into sc slice ~a:gin ~b:gout)
      then Fault.Open_failure
      else Fault.Normal)
