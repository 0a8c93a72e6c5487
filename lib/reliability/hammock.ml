module Digraph = Ftcsn_graph.Digraph

type t = {
  graph : Digraph.t;
  input : int;
  output : int;
  rows : int;
  width : int;
}

let make ~rows ~width =
  if rows < 1 || width < 1 then invalid_arg "Hammock.make";
  let b = Digraph.Builder.create () in
  let input = Digraph.Builder.add_vertex b in
  let output = Digraph.Builder.add_vertex b in
  let first = Digraph.Builder.add_vertices b (rows * width) in
  let vertex i j = first + (j * rows) + i in
  for i = 0 to rows - 1 do
    ignore (Digraph.Builder.add_edge b ~src:input ~dst:(vertex i 0));
    ignore (Digraph.Builder.add_edge b ~src:(vertex i (width - 1)) ~dst:output)
  done;
  for j = 0 to width - 2 do
    for i = 0 to rows - 1 do
      ignore (Digraph.Builder.add_edge b ~src:(vertex i j) ~dst:(vertex i (j + 1)));
      if rows > 1 then
        ignore
          (Digraph.Builder.add_edge b ~src:(vertex i j)
             ~dst:(vertex ((i + 1) mod rows) (j + 1)))
    done
  done;
  { graph = Digraph.Builder.freeze b; input; output; rows; width }

let size t = Digraph.edge_count t.graph

(* Both estimators run on a Scratch workspace per chunk: BFS arrays and
   union-find, no per-trial allocation.  Labels and draw order are
   unchanged, so curves match the historical runs exactly. *)
let open_failure_prob ?jobs ?target_ci ?progress ?trace ~trials ~rng ~eps t =
  Monte_carlo.estimate_event ?jobs ?target_ci ?progress ?trace
    ~label:"hammock.open_failure_prob" ~trials ~rng ~m:(size t)
    ~eps_open:eps ~eps_close:eps
    ~init:(fun () -> Scratch.create t.graph)
    (fun sc _ pattern ->
      not
        (Survivor.connected_ignoring_opens_into sc pattern ~a:t.input
           ~b:t.output))

let short_failure_prob ?jobs ?target_ci ?progress ?trace ~trials ~rng ~eps t =
  Monte_carlo.estimate_event ?jobs ?target_ci ?progress ?trace
    ~label:"hammock.short_failure_prob" ~trials ~rng ~m:(size t)
    ~eps_open:eps ~eps_close:eps
    ~init:(fun () -> Scratch.create t.graph)
    (fun sc _ pattern ->
      Survivor.shorted_by_closure_into sc pattern ~a:t.input ~b:t.output)

let depth t =
  Ftcsn_graph.Traverse.depth t.graph ~inputs:[ t.input ] ~outputs:[ t.output ]
