module Digraph = Ftcsn_graph.Digraph

type t = {
  inlets : int;
  outlets : int;
  adj : int array array;
}

let make ~inlets ~outlets ~adj =
  if Array.length adj <> inlets then invalid_arg "Bipartite.make: adj arity";
  let adj =
    Array.map
      (fun row ->
        Array.iter
          (fun o ->
            if o < 0 || o >= outlets then invalid_arg "Bipartite.make: range")
          row;
        let sorted = Array.copy row in
        Array.sort compare sorted;
        (* dedup *)
        let out = Ftcsn_util.Vec.create () in
        Array.iteri
          (fun i o ->
            if i = 0 || sorted.(i - 1) <> o then Ftcsn_util.Vec.push out o)
          sorted;
        Ftcsn_util.Vec.to_array out)
      adj
  in
  { inlets; outlets; adj }

let degree t i = Array.length t.adj.(i)

let max_degree t = Array.fold_left (fun acc row -> max acc (Array.length row)) 0 t.adj

let edge_count t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.adj

let neighbourhood_size t s =
  let seen = Ftcsn_util.Bitset.create t.outlets in
  Array.iter (fun i -> Array.iter (Ftcsn_util.Bitset.add seen) t.adj.(i)) s;
  Ftcsn_util.Bitset.cardinal seen

let to_digraph t =
  let b = Digraph.Builder.create () in
  let inlet_ids = Array.init t.inlets (fun _ -> Digraph.Builder.add_vertex b) in
  let outlet_ids = Array.init t.outlets (fun _ -> Digraph.Builder.add_vertex b) in
  Array.iteri
    (fun i row ->
      Array.iter
        (fun o ->
          ignore (Digraph.Builder.add_edge b ~src:inlet_ids.(i) ~dst:outlet_ids.(o)))
        row)
    t.adj;
  (Digraph.Builder.freeze b, inlet_ids, outlet_ids)

let reverse t =
  let radj = Array.make t.outlets [] in
  Array.iteri
    (fun i row -> Array.iter (fun o -> radj.(o) <- i :: radj.(o)) row)
    t.adj;
  make ~inlets:t.outlets ~outlets:t.inlets
    ~adj:(Array.map Array.of_list radj)
