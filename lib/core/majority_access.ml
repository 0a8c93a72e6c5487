module Network = Ftcsn_networks.Network
module Traverse = Ftcsn_graph.Traverse

let middle_stage net =
  let staged =
    Ftcsn_graph.Staged.of_sources net.Network.graph
      ~sources:(Array.to_list net.Network.inputs)
  in
  let mid = staged.Ftcsn_graph.Staged.stages / 2 in
  Array.of_list (Ftcsn_graph.Staged.vertices_at staged mid)

(* every idle terminal on one side must reach (along the given
   orientation) strictly more than half of the waist through idle allowed
   vertices *)
let side_majority g ~allowed ~busy ~terminals ~waist =
  let half = Array.length waist / 2 in
  Array.for_all
    (fun t ->
      if busy t then true
      else begin
        let ok v = allowed v && not (busy v) in
        let dist = Traverse.bfs_directed ~allowed:ok g ~sources:[ t ] in
        let reached =
          Array.fold_left
            (fun acc w -> if dist.(w) >= 0 && ok w then acc + 1 else acc)
            0 waist
        in
        reached > half
      end)
    terminals

let sampled_busy_majority ~trials ~rng ?(load = 0.5) ~allowed net =
  let module Rng = Ftcsn_prng.Rng in
  let module Greedy = Ftcsn_routing.Greedy in
  let n = min (Network.n_outputs net) (Network.n_inputs net) in
  let k = max 0 (int_of_float (load *. float_of_int n)) in
  let waist = middle_stage net in
  let g = net.Network.graph in
  let rev = Ftcsn_graph.Digraph.reverse g in
  let ok = ref true in
  let t = ref 0 in
  while !ok && !t < trials do
    incr t;
    let sub = Rng.split rng in
    (* establish a random partial permutation of k calls *)
    let router = Greedy.create ~allowed net in
    let ins = Rng.sample_without_replacement sub ~n ~k in
    let outs = Rng.sample_without_replacement sub ~n ~k in
    let perm = Rng.permutation sub k in
    Array.iteri
      (fun idx i ->
        ignore
          (Greedy.route router ~input:net.Network.inputs.(i)
             ~output:net.Network.outputs.(outs.(perm.(idx)))))
      ins;
    let busy v = Greedy.busy router v in
    if
      not
        (side_majority g ~allowed ~busy ~terminals:net.Network.inputs ~waist
        && side_majority rev ~allowed ~busy ~terminals:net.Network.outputs
             ~waist)
    then ok := false
  done;
  !ok
