module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph

type outcome =
  | Routed of int list list
  | Unroutable
  | Budget_exceeded

exception Out_of_budget

let route_all ?(budget = 200_000) ?(allowed = fun _ -> true)
    ?(edge_ok = fun _ -> true) net requests =
  let g = net.Network.graph in
  let n = Digraph.vertex_count g in
  let busy = Array.make n false in
  let steps = ref 0 in
  let tick () =
    incr steps;
    if !steps > budget then raise Out_of_budget
  in
  let requests = Array.of_list requests in
  let k = Array.length requests in
  let acc = Array.make k [] in
  let terminal = Array.make n false in
  Array.iter (fun v -> terminal.(v) <- true) net.Network.inputs;
  Array.iter (fun v -> terminal.(v) <- true) net.Network.outputs;
  (* Depth-first over requests; for request r enumerate all simple paths
     src->dst through idle vertices, committing each in turn. *)
  let rec solve r =
    if r = k then true
    else begin
      let src, dst = requests.(r) in
      if busy.(src) || busy.(dst) || not (allowed src && allowed dst) then false
      else begin
        (* DFS path enumeration from src *)
        let rec extend v path =
          tick ();
          if v = dst then begin
            acc.(r) <- List.rev (v :: path);
            busy.(v) <- true;
            let solved = solve (r + 1) in
            if solved then true
            else begin
              busy.(v) <- false;
              false
            end
          end
          else
            Digraph.fold_out g v ~init:false ~f:(fun found ~dst:w ~eid ->
                found
                ||
                if
                  edge_ok eid
                  && (not busy.(w))
                  && allowed w
                  && (w = dst || not terminal.(w))
                then begin
                  busy.(w) <- true;
                  let solved = extend w (v :: path) in
                  if solved then true
                  else begin
                    busy.(w) <- false;
                    false
                  end
                end
                else false)
        in
        busy.(src) <- true;
        let solved = extend src [] in
        if not solved then busy.(src) <- false;
        solved
      end
    end
  in
  match solve 0 with
  | true -> Routed (Array.to_list acc)
  | false -> Unroutable
  | exception Out_of_budget -> Budget_exceeded
