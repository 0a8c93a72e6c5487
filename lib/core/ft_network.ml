module Digraph = Ftcsn_graph.Digraph
module Network = Ftcsn_networks.Network
module Recursive_nb = Ftcsn_networks.Recursive_nb
module Rng = Ftcsn_prng.Rng

type t = {
  net : Network.t;
  params : Ft_params.t;
  input_grids : Directed_grid.t array;
  output_grids : Directed_grid.t array;
  middle : Recursive_nb.t;
}

let make ~rng (params : Ft_params.t) =
  (match Ft_params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ft_network.make: " ^ msg));
  let n = Ft_params.n params in
  let rows = Ft_params.grid_rows params in
  let levels = Ft_params.middle_levels params in
  let b = Digraph.Builder.create () in
  let inputs = Array.init n (fun _ -> Digraph.Builder.add_vertex b) in
  let outputs = Array.init n (fun _ -> Digraph.Builder.add_vertex b) in
  (* input grids, fed by their terminals *)
  let input_grids =
    Array.init n (fun i ->
        let grid =
          Directed_grid.build ~builder:b ~rows ~stages:params.grid_stages ()
        in
        Array.iter
          (fun v -> ignore (Digraph.Builder.add_edge b ~src:inputs.(i) ~dst:v))
          grid.Directed_grid.columns.(0);
        grid)
  in
  (* middle network: its first stage is the concatenation of the grids'
     last columns (vertex identification, not extra switches) *)
  let first_stage =
    Array.concat
      (Array.to_list
         (Array.map
            (fun g -> g.Directed_grid.columns.(params.grid_stages - 1))
            input_grids))
  in
  let middle =
    Recursive_nb.build ~builder:b ~rng ~params:params.base ~levels
      ~trim:params.gamma ~first_stage ()
  in
  let last_stage = middle.Recursive_nb.stages.(Array.length middle.Recursive_nb.stages - 1) in
  (* output grids: first column identified with a block of the middle's
     last stage, last column draining into the output terminal *)
  let output_grids =
    Array.init n (fun j ->
        let first_column = Array.sub last_stage (j * rows) rows in
        let grid =
          Directed_grid.build ~builder:b ~rows ~stages:params.grid_stages
            ~first_column ()
        in
        Array.iter
          (fun v -> ignore (Digraph.Builder.add_edge b ~src:v ~dst:outputs.(j)))
          grid.Directed_grid.columns.(params.grid_stages - 1);
        grid)
  in
  let graph = Digraph.Builder.freeze b in
  let net =
    Network.make
      ~name:(Format.asprintf "%a" Ft_params.pp params)
      ~graph ~inputs ~outputs
  in
  { net; params; input_grids; output_grids; middle }

let stage_census t =
  let g = t.net.Network.graph in
  let staged =
    Ftcsn_graph.Staged.of_sources g
      ~sources:(Array.to_list t.net.Network.inputs)
  in
  let sizes = Ftcsn_graph.Staged.stage_sizes staged in
  let edges = Ftcsn_graph.Staged.stage_edge_counts g staged in
  let gs = t.params.Ft_params.grid_stages in
  let middle_stages = Array.length t.middle.Recursive_nb.stages in
  (* stage gs is both the grids' last column and the middle's stage 0;
     stage gs + middle_stages - 1 is both the middle's last stage and the
     output grids' first column *)
  let last = Array.length sizes - 1 in
  let label s =
    if s = 0 then "inputs"
    else if s = last then "outputs"
    else if s < gs then Printf.sprintf "grid-in[%d]" (s - 1)
    else if s <= gs + middle_stages - 1 then Printf.sprintf "middle[%d]" (s - gs)
    else Printf.sprintf "grid-out[%d]" (s - gs - middle_stages + 1)
  in
  Array.to_list
    (Array.mapi
       (fun s size ->
         (label s, size, if s < Array.length edges then edges.(s) else 0))
       sizes)
