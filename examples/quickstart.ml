(* Quickstart: build the paper's fault-tolerant network, break it, strip
   it, and route through the survivor.

   Run with: dune exec examples/quickstart.exe *)

module Rng = Ftcsn_prng.Rng
module Network = Ftcsn_networks.Network
module Fault = Ftcsn_reliability.Fault
module Fault_strip = Ftcsn.Fault_strip

let () =
  (* 1. Build network N of the paper's section 6 at test scale:
        n = 2^3 = 8 terminals, with grids and a doubly-oversized middle. *)
  let rng = Rng.create ~seed:2024 in
  let params = Ftcsn.Ft_params.scaled ~u:3 () in
  let ft = Ftcsn.Ft_network.make ~rng params in
  let net = ft.Ftcsn.Ft_network.net in
  Format.printf "built %a@." Network.pp net;

  (* 2. Break it: every switch independently suffers an open or closed
        failure with probability 1% each. *)
  let pattern =
    Fault.sample rng ~eps_open:0.01 ~eps_close:0.01 ~m:(Network.size net)
  in
  Format.printf "injected %d open and %d closed failures into %d switches@."
    (Fault.count pattern Fault.Open_failure)
    (Fault.count pattern Fault.Closed_failure)
    (Network.size net);

  (* 3. Strip: discard faulty components (the paper's section 4 remark —
        no clever computation needed). *)
  let ws = Fault_strip.create_ws net in
  Fault_strip.strip_into ws pattern;
  let stripped = Ftcsn_util.Bitset.cardinal (Fault_strip.ws_stripped ws)
  and vertices = Ftcsn_graph.Digraph.vertex_count net.Network.graph in
  Format.printf "stripped %.1f%% of vertices; terminals shorted: %b@."
    (100.0 *. (float_of_int stripped /. float_of_int vertices))
    (not (Fault_strip.ws_healthy ws));

  (* 4. Route: greedy path-finding through the survivor serves a full
        permutation; the strip's masks keep it off stripped vertices and
        failed switches. *)
  let router =
    Ftcsn_routing.Greedy.create ~allowed:(Fault_strip.ws_allowed ws)
      ~edge_ok:(Fault_strip.ws_edge_ok ws) net
  in
  let pi = Rng.permutation rng 8 in
  let success = ref 0 in
  let paths = Ftcsn_routing.Greedy.route_permutation router pi ~success in
  Format.printf "routed %d/8 calls of permutation %a@." !success
    Ftcsn_util.Perm.pp pi;
  Array.iteri
    (fun i path ->
      match path with
      | Some p -> Format.printf "  call %d->%d uses %d switches@." i pi.(i)
                    (List.length p - 1)
      | None -> Format.printf "  call %d->%d blocked@." i pi.(i))
    paths;

  (* 5. One-line (eps, delta) estimate. *)
  let est =
    Ftcsn.Pipeline.survival ~trials:100 ~rng ~eps:0.01 net
  in
  Format.printf
    "P[network contains a working nonblocking net at eps=1%%] ~ %.2f@."
    est.Ftcsn_reliability.Monte_carlo.mean
