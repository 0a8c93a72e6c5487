module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Traverse = Ftcsn_graph.Traverse
module Bitset = Ftcsn_util.Bitset
module Rng = Ftcsn_prng.Rng

type state = {
  net : Ftcsn_networks.Network.t;
  busy : Bitset.t;
  calls : (int * int * int list) list;
}

type strategy = state -> input:int -> output:int -> int list option

let terminal_mask net =
  let mask = Array.make (Digraph.vertex_count net.Network.graph) false in
  Array.iter (fun v -> mask.(v) <- true) net.Network.inputs;
  Array.iter (fun v -> mask.(v) <- true) net.Network.outputs;
  mask

let greedy_strategy state ~input ~output =
  let net = state.net in
  let terminal = terminal_mask net in
  let src = net.Network.inputs.(input) and dst = net.Network.outputs.(output) in
  let ok v = (not (Bitset.mem state.busy v)) && not terminal.(v) in
  Traverse.shortest_path ~allowed:ok net.Network.graph ~src ~dst

(* enumerate all simple idle paths src -> dst (DFS, small networks), then
   pick the one whose interior is least useful to future calls: minimise
   the total idle out-degree of interior vertices, i.e. pack the most
   constrained middles first *)
let packing_strategy state ~input ~output =
  let net = state.net in
  let g = net.Network.graph in
  let terminal = terminal_mask net in
  let src = net.Network.inputs.(input) and dst = net.Network.outputs.(output) in
  let idle v = not (Bitset.mem state.busy v) in
  let candidates = ref [] in
  let budget = ref 20_000 in
  let on_path = Bitset.create (Digraph.vertex_count g) in
  let rec extend v acc =
    decr budget;
    if !budget > 0 then begin
      if v = dst then candidates := List.rev (v :: acc) :: !candidates
      else
        Digraph.iter_out g v (fun ~dst:w ~eid:_ ->
            if
              idle w
              && (w = dst || not terminal.(w))
              && not (Bitset.mem on_path w)
            then begin
              Bitset.add on_path w;
              extend w (v :: acc);
              Bitset.remove on_path w
            end)
    end
  in
  Bitset.add on_path src;
  extend src [];
  let idle_degree v =
    Digraph.fold_out g v ~init:0 ~f:(fun acc ~dst:w ~eid:_ ->
        if idle w then acc + 1 else acc)
    + Digraph.fold_in g v ~init:0 ~f:(fun acc ~src:w ~eid:_ ->
          if idle w then acc + 1 else acc)
  in
  let score path =
    let interior = List.filter (fun v -> v <> src && v <> dst) path in
    (List.fold_left (fun acc v -> acc + idle_degree v) 0 interior, path)
  in
  match List.map score !candidates with
  | [] -> None
  | scored ->
      let best =
        List.fold_left
          (fun acc cand -> if compare cand acc < 0 then cand else acc)
          (List.hd scored) (List.tl scored)
      in
      Some (snd best)

let validate_path net busy ~input ~output path =
  let g = net.Network.graph in
  let src = net.Network.inputs.(input) and dst = net.Network.outputs.(output) in
  match path with
  | [] -> false
  | first :: _ ->
      let rec check = function
        | [ last ] -> last = dst
        | a :: (b :: _ as rest) ->
            let edge_exists =
              Digraph.fold_out g a ~init:false ~f:(fun acc ~dst:w ~eid:_ ->
                  acc || w = b)
            in
            edge_exists && not (Bitset.mem busy b) && check rest
        | [] -> false
      in
      first = src && (not (Bitset.mem busy src)) && check path

let stress ~steps ~rng strategy net =
  let n_in = Network.n_inputs net and n_out = Network.n_outputs net in
  let busy = Bitset.create (Digraph.vertex_count net.Network.graph) in
  let calls = ref [] in
  let offered = ref 0 and blocked = ref 0 in
  for _ = 1 to steps do
    let live = List.length !calls in
    let arrive = live = 0 || (Rng.bernoulli rng 0.6 && live < min n_in n_out) in
    if arrive then begin
      let idle_inputs =
        List.filter
          (fun i -> not (List.exists (fun (i', _, _) -> i' = i) !calls))
          (List.init n_in Fun.id)
      in
      let idle_outputs =
        List.filter
          (fun o -> not (List.exists (fun (_, o', _) -> o' = o) !calls))
          (List.init n_out Fun.id)
      in
      match (idle_inputs, idle_outputs) with
      | [], _ | _, [] -> ()
      | _ ->
          let i = List.nth idle_inputs (Rng.int rng (List.length idle_inputs)) in
          let o = List.nth idle_outputs (Rng.int rng (List.length idle_outputs)) in
          incr offered;
          let state = { net; busy; calls = !calls } in
          (match strategy state ~input:i ~output:o with
          | Some path when validate_path net busy ~input:i ~output:o path ->
              List.iter (Bitset.add busy) path;
              calls := (i, o, path) :: !calls
          | Some _ | None -> incr blocked)
    end
    else begin
      match !calls with
      | [] -> ()
      | _ ->
          let idx = Rng.int rng (List.length !calls) in
          let i, o, path = List.nth !calls idx in
          List.iter (Bitset.remove busy) path;
          calls := List.filter (fun (i', o', _) -> (i', o') <> (i, o)) !calls
    end
  done;
  (!offered, !blocked)
