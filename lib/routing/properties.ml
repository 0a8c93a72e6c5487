module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Perm = Ftcsn_util.Perm
module Combinat = Ftcsn_util.Combinat
module Rng = Ftcsn_prng.Rng
module Bitset = Ftcsn_util.Bitset

type sc_violation = {
  r : int;
  input_indices : int array;
  output_indices : int array;
  achieved : int;
}

let superconcentrator_exhaustive ?(max_work = 200_000) net =
  let n = min (Network.n_inputs net) (Network.n_outputs net) in
  let total_work =
    let acc = ref 0.0 in
    for r = 1 to n do
      acc :=
        !acc
        +. (Combinat.binomial (Network.n_inputs net) r
           *. Combinat.binomial (Network.n_outputs net) r)
    done;
    !acc
  in
  if total_work > float_of_int max_work then `Too_large
  else begin
    let ws = Flow_route.create_ws net in
    let violation = ref None in
    (try
       for r = 1 to n do
         Combinat.iter_subsets ~n:(Network.n_inputs net) ~k:r (fun s ->
             let s = Array.copy s in
             Combinat.iter_subsets ~n:(Network.n_outputs net) ~k:r (fun t ->
                 let achieved =
                   Flow_route.max_throughput_ws ws ~input_indices:s
                     ~output_indices:t
                 in
                 if achieved < r then begin
                   violation :=
                     Some
                       {
                         r;
                         input_indices = s;
                         output_indices = Array.copy t;
                         achieved;
                       };
                   raise Exit
                 end))
       done
     with Exit -> ());
    match !violation with None -> `Holds | Some v -> `Violated v
  end

let superconcentrator_sampled ?jobs ?trace ~trials ~rng net =
  let n_in = Network.n_inputs net and n_out = Network.n_outputs net in
  let n = min n_in n_out in
  Ftcsn_sim.Trials.search ?jobs ?trace ~label:"properties.sc_sampled"
    ~trials ~rng
    ~init:(fun () -> Flow_route.create_ws net)
    (fun ws sub ->
      let r = 1 + Rng.int sub n in
      let s = Rng.sample_without_replacement sub ~n:n_in ~k:r in
      let t_set = Rng.sample_without_replacement sub ~n:n_out ~k:r in
      let achieved =
        Flow_route.max_throughput_ws ws ~input_indices:s ~output_indices:t_set
      in
      if achieved < r then
        Some { r; input_indices = s; output_indices = t_set; achieved }
      else None)

let requests_of_perm net pi =
  Array.to_list
    (Array.mapi (fun i o -> (net.Network.inputs.(i), net.Network.outputs.(o))) pi)

let rearrangeable_exhaustive ?(budget = 500_000) net =
  let n = Network.n_inputs net in
  if n <> Network.n_outputs net then invalid_arg "Properties: asymmetric network";
  let result = ref `Holds in
  (try
     Perm.iter_all n (fun pi ->
         match Backtrack.route_all ~budget net (requests_of_perm net pi) with
         | Backtrack.Routed _ -> ()
         | Backtrack.Unroutable ->
             result := `Violated (Array.copy pi);
             raise Exit
         | Backtrack.Budget_exceeded ->
             result := `Budget_exceeded;
             raise Exit)
   with Exit -> ());
  !result

let rearrangeable_sampled ?jobs ?trace ~trials ~rng ?(budget = 500_000) net =
  let n = Network.n_inputs net in
  Ftcsn_sim.Trials.search ?jobs ?trace ~label:"properties.rearr_sampled"
    ~trials ~rng ~init:ignore (fun () sub ->
      let pi = Rng.permutation sub n in
      match Backtrack.route_all ~budget net (requests_of_perm net pi) with
      | Backtrack.Routed _ -> None
      | Backtrack.Unroutable | Backtrack.Budget_exceeded -> Some pi)

type nb_violation = {
  established : int list list;
  input : int;
  output : int;
}

exception Nb_violation of nb_violation
exception Nb_budget

(* Exhaustive nonblocking game: explore every reachable set of established
   vertex-disjoint paths (memoised on the busy set); in every state every
   idle input/output pair must admit an idle path. *)
let nonblocking_exhaustive ?(max_states = 200_000) net =
  let g = net.Network.graph in
  let n_v = Digraph.vertex_count g in
  let busy = Bitset.create n_v in
  let terminal = Array.make n_v false in
  Array.iter (fun v -> terminal.(v) <- true) net.Network.inputs;
  Array.iter (fun v -> terminal.(v) <- true) net.Network.outputs;
  let seen = Hashtbl.create 1024 in
  let visited = ref 0 in
  let key () = String.concat "," (List.map string_of_int (Bitset.to_list busy)) in
  (* enumerate all simple idle paths src -> dst, calling [f] on each *)
  let iter_paths ~src ~dst f =
    let rec extend v path =
      if v = dst then f (List.rev (v :: path))
      else
        Digraph.iter_out g v (fun ~dst:w ~eid:_ ->
            if
              (not (Bitset.mem busy w))
              && (w = dst || not terminal.(w))
              && not (List.mem w path)
            then begin
              Bitset.add busy w;
              extend w (v :: path);
              Bitset.remove busy w
            end)
    in
    extend src []
  in
  let idle v = not (Bitset.mem busy v) in
  let rec explore established =
    let k = key () in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      incr visited;
      if !visited > max_states then raise Nb_budget;
      (* every idle pair must be routable right now (BFS probe) *)
      let routable i o =
        Ftcsn_graph.Traverse.shortest_path
          ~allowed:(fun v -> idle v && not terminal.(v))
          g ~src:i ~dst:o
        <> None
      in
      Array.iter
        (fun i ->
          if idle i then
            Array.iter
              (fun o ->
                if idle o && not (routable i o) then
                  raise (Nb_violation { established; input = i; output = o }))
              net.Network.outputs)
        net.Network.inputs;
      (* branch: establish any path for any idle pair and recurse *)
      Array.iter
        (fun i ->
          if idle i then
            Array.iter
              (fun o ->
                if idle o then
                  iter_paths ~src:i ~dst:o (fun path ->
                      (* [iter_paths] marked internal vertices during
                         extension but unmarked them; re-mark the full path *)
                      List.iter (Bitset.add busy) path;
                      explore (path :: established);
                      List.iter (Bitset.remove busy) path))
              net.Network.outputs)
        net.Network.inputs
    end
  in
  match explore [] with
  | () -> `Holds
  | exception Nb_violation v -> `Violated v
  | exception Nb_budget -> `Budget_exceeded

let is_banyan net =
  Array.for_all
    (fun i ->
      Array.for_all
        (fun o ->
          Backtrack.count_paths net ~src:i ~dst:o = 1)
        net.Network.outputs)
    net.Network.inputs
