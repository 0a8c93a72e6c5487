module Digraph = Ftcsn_graph.Digraph
module Traverse = Ftcsn_graph.Traverse

type t = {
  name : string;
  graph : Digraph.t;
  inputs : int array;
  outputs : int array;
}

let make ~name ~graph ~inputs ~outputs =
  let n = Digraph.vertex_count graph in
  let seen = Hashtbl.create 64 in
  let check v =
    if v < 0 || v >= n then invalid_arg "Network.make: terminal out of range";
    if Hashtbl.mem seen v then invalid_arg "Network.make: duplicate terminal";
    Hashtbl.add seen v ()
  in
  Array.iter check inputs;
  Array.iter check outputs;
  { name; graph; inputs; outputs }

let n_inputs t = Array.length t.inputs

let n_outputs t = Array.length t.outputs

let size t = Digraph.edge_count t.graph

let depth t =
  Traverse.depth t.graph ~inputs:(Array.to_list t.inputs)
    ~outputs:(Array.to_list t.outputs)

let is_acyclic t = Traverse.is_acyclic t.graph

let terminals t = Array.to_list t.inputs @ Array.to_list t.outputs

let reverse t =
  {
    name = t.name ^ "-mirror";
    graph = Digraph.reverse t.graph;
    inputs = t.outputs;
    outputs = t.inputs;
  }

let pp ppf t =
  Format.fprintf ppf "%s: n=%dx%d size=%d depth=%d" t.name (n_inputs t)
    (n_outputs t) (size t) (depth t)
