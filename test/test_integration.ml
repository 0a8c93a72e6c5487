(* Cross-module integration tests: full paper pipelines exercised
   end-to-end — substitution transfers, fault-injection + routing across
   network families, exact vs Monte-Carlo agreement on whole networks,
   and the §3 class inclusions. *)

module Network = Ftcsn_networks.Network
module Benes = Ftcsn_networks.Benes
module Crossbar = Ftcsn_networks.Crossbar
module Clos = Ftcsn_networks.Clos
module Butterfly = Ftcsn_networks.Butterfly
module Properties = Ftcsn_routing.Properties
module Fault = Ftcsn_reliability.Fault
module Survivor = Ftcsn_reliability.Survivor
module Sp_network = Ftcsn_reliability.Sp_network
module Substitution = Ftcsn_reliability.Substitution
module Digraph = Ftcsn_graph.Digraph
module Rng = Ftcsn_prng.Rng
module Ft_params = Ftcsn.Ft_params
module Ft_network = Ftcsn.Ft_network
module Pipeline = Ftcsn.Pipeline
module Fault_strip = Ftcsn.Fault_strip

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* §2 inclusion chain: nonblocking => rearrangeable => superconcentrator,
   exercised on concrete instances by the deciders *)
let test_class_inclusions_crossbar () =
  let net = Crossbar.square 3 in
  (match Properties.nonblocking_exhaustive ~max_states:100_000 net with
  | `Holds -> ()
  | _ -> Alcotest.fail "crossbar nonblocking");
  (match Properties.rearrangeable_exhaustive net with
  | `Holds -> ()
  | _ -> Alcotest.fail "nonblocking implies rearrangeable");
  match Properties.superconcentrator_exhaustive ~max_work:50_000 net with
  | `Holds -> ()
  | _ -> Alcotest.fail "rearrangeable implies superconcentrator"

let test_class_separation_examples () =
  (* Benes: rearrangeable but not nonblocking; butterfly: neither *)
  let benes = Benes.create 4 in
  (match Properties.rearrangeable_exhaustive benes with
  | `Holds -> ()
  | _ -> Alcotest.fail "Benes rearrangeable");
  (match Properties.nonblocking_exhaustive ~max_states:150_000 benes with
  | `Violated _ -> ()
  | `Holds -> Alcotest.fail "Benes is not strictly nonblocking"
  | `Budget_exceeded -> Alcotest.fail "budget");
  match Properties.rearrangeable_exhaustive (Butterfly.make 4) with
  | `Violated _ -> ()
  | _ -> Alcotest.fail "butterfly is not rearrangeable"

(* §3 edge substitution transfer: substituting an amplifier gadget into a
   Benes network keeps it routable and multiplies size by gadget size *)
let test_substitution_transfer_routability () =
  let benes = Benes.create 4 in
  let gadget = Sp_network.build (Sp_network.iterate_quad 1) in
  let sub = Substitution.substitute benes.Network.graph ~gadget in
  let net' =
    Network.make ~name:"benes-substituted" ~graph:sub.Substitution.graph
      ~inputs:(Array.map (fun v -> sub.Substitution.vertex_image.(v)) benes.Network.inputs)
      ~outputs:(Array.map (fun v -> sub.Substitution.vertex_image.(v)) benes.Network.outputs)
  in
  check "size multiplied" (4 * Network.size benes) (Network.size net');
  check "depth multiplied" (2 * Network.depth benes) (Network.depth net');
  match Properties.rearrangeable_exhaustive ~budget:2_000_000 net' with
  | `Holds -> ()
  | `Violated _ -> Alcotest.fail "substitution must preserve rearrangeability"
  | `Budget_exceeded -> Alcotest.fail "budget"

(* fault injection + survivor + routing, across families *)
let test_survivor_routing_consistency () =
  let rng = Rng.create ~seed:42 in
  let benes = Benes.create 8 in
  let g = benes.Network.graph in
  for _ = 1 to 20 do
    let pattern =
      Fault.sample rng ~eps_open:0.02 ~eps_close:0.02 ~m:(Digraph.edge_count g)
    in
    let strip = Strip_ref.strip benes pattern in
    (* any greedy route found through allowed vertices must avoid every
       faulty internal vertex *)
    let router = Ftcsn_routing.Greedy.create ~allowed:strip.Strip_ref.allowed benes in
    match
      Ftcsn_routing.Greedy.route router ~input:benes.Network.inputs.(0)
        ~output:benes.Network.outputs.(7)
    with
    | None -> ()
    | Some path ->
        List.iter
          (fun v ->
            if
              Ftcsn_util.Bitset.mem strip.Strip_ref.stripped v
              && not (List.mem v (Network.terminals benes))
            then Alcotest.fail "route through stripped vertex")
          path
  done

(* exact containment vs pipeline proxy on a tiny network: for a 1-edge
   network the (eps, delta) probability is exact *)
let test_exact_vs_pipeline_tiny () =
  let g = Digraph.of_edges ~n:2 [| (0, 1) |] in
  let net = Network.make ~name:"wire" ~graph:g ~inputs:[| 0 |] ~outputs:[| 1 |] in
  let eps = 0.2 in
  (* survival = the single switch is normal = 1 - 2 eps *)
  let rng = Rng.create ~seed:43 in
  let est =
    Pipeline.survival ~trials:4000 ~rng ~eps
      ~probe:
        {
          Pipeline.greedy_permutations = 1;
          exact_permutations = 0;
          exact_budget = 0;
          sc_probes = 0;
          majority_probes = 0;
        }
      net
  in
  let exact = 1.0 -. (2.0 *. eps) in
  checkb "within CI" true
    (est.Ftcsn_reliability.Monte_carlo.ci_low <= exact
    && exact <= est.Ftcsn_reliability.Monte_carlo.ci_high)

(* the FT construction's survivor still satisfies sampled
   superconcentration at moderate fault rates *)
let test_ft_survivor_superconcentrates () =
  let rng = Rng.create ~seed:44 in
  let ft = Ft_network.make ~rng (Ft_params.scaled ~u:2 ()) in
  let net = ft.Ft_network.net in
  let g = net.Network.graph in
  let ws = Ftcsn_routing.Flow_route.create_ws net in
  let ok = ref 0 in
  let trials = 15 in
  for _ = 1 to trials do
    let pattern =
      Fault.sample rng ~eps_open:0.005 ~eps_close:0.005 ~m:(Digraph.edge_count g)
    in
    let strip = Strip_ref.strip net pattern in
    if Strip_ref.healthy strip then begin
      let forbidden v = not (strip.Strip_ref.allowed v) in
      let all = Array.init (Network.n_inputs net) Fun.id in
      if
        Ftcsn_routing.Flow_route.max_throughput_ws ~forbidden ws
          ~input_indices:all ~output_indices:all
        = Array.length all
      then incr ok
    end
  done;
  checkb "most trials fully superconcentrate" true (!ok >= trials - 2)

(* §3 monotonicity: survival probability decreases as eps grows, across
   two families *)
let test_survival_monotone_families () =
  let rng = Rng.create ~seed:45 in
  let nets =
    [
      Benes.create 8;
      Clos.nonblocking ~n:8;
    ]
  in
  List.iter
    (fun net ->
      let at eps =
        (Pipeline.survival ~trials:30 ~rng ~eps ~probe:Pipeline.sc_probe_only net)
          .Ftcsn_reliability.Monte_carlo.mean
      in
      let s1 = at 0.001 and s2 = at 0.1 in
      checkb (net.Network.name ^ " monotone") true (s1 >= s2))
    nets

(* closed failures shorting terminals: measured rate roughly matches the
   exact enumeration on a 2-path toy *)
let test_short_rate_vs_exact () =
  let g = Digraph.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let net = Network.make ~name:"chain" ~graph:g ~inputs:[| 0 |] ~outputs:[| 2 |] in
  let eps = 0.25 in
  let exact =
    Exact_ref.probability g ~eps_open:eps ~eps_close:eps
      (fun pattern -> Strip_ref.shorted_by_closure g pattern ~a:0 ~b:2)
  in
  Alcotest.(check (float 1e-9)) "eps^2" (eps *. eps) exact;
  let rng = Rng.create ~seed:46 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let pattern = Fault.sample rng ~eps_open:eps ~eps_close:eps ~m:2 in
    let strip = Strip_ref.strip net pattern in
    if not (Strip_ref.healthy strip) then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  checkb "measured matches" true (Float.abs (rate -. exact) < 0.01)

(* seeded builds are bit-reproducible across the whole stack *)
let test_reproducible_builds () =
  let build seed =
    let rng = Rng.create ~seed in
    let ft = Ft_network.make ~rng (Ft_params.scaled ~u:2 ()) in
    let g = ft.Ft_network.net.Network.graph in
    List.init (Digraph.edge_count g) (fun e -> Digraph.edge_endpoints g e)
  in
  checkb "same seed same network" true (build 7 = build 7);
  checkb "different seed differs" true (build 7 <> build 8)

let () =
  Alcotest.run "ftcsn_integration"
    [
      ( "class-hierarchy",
        [
          Alcotest.test_case "inclusions" `Quick test_class_inclusions_crossbar;
          Alcotest.test_case "separations" `Slow test_class_separation_examples;
        ] );
      ( "substitution",
        [
          Alcotest.test_case "transfer" `Slow test_substitution_transfer_routability;
        ] );
      ( "fault-pipeline",
        [
          Alcotest.test_case "survivor routing" `Quick test_survivor_routing_consistency;
          Alcotest.test_case "exact vs pipeline" `Quick test_exact_vs_pipeline_tiny;
          Alcotest.test_case "ft survivor sc" `Slow test_ft_survivor_superconcentrates;
          Alcotest.test_case "monotone families" `Slow test_survival_monotone_families;
          Alcotest.test_case "short rate" `Quick test_short_rate_vs_exact;
        ] );
      ( "reproducibility",
        [ Alcotest.test_case "seeded builds" `Quick test_reproducible_builds ] );
    ]
