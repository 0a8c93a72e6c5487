(* Building reliable switching out of unreliable relays — the
   Moore-Shannon programme (Proposition 1) made executable.

   Given crummy switches that fail 10% of the time, we design an
   (eps, eps')-1-network gadget whose composite open/short failure
   probabilities are provably below a target, then substitute one gadget
   for EVERY switch of a crossbar (the section 3 transfer argument) and
   measure the composite fabric.

   All measurements run on the Ftcsn_sim.Trials engine across every
   available core; the printed numbers are bit-identical to a
   single-threaded run.

   Run with: dune exec examples/reliability_amplifier.exe *)

module Rng = Ftcsn_prng.Rng
module Sp = Ftcsn_reliability.Sp_network
module Fault = Ftcsn_reliability.Fault
module Survivor = Ftcsn_reliability.Survivor
module Scratch = Ftcsn_reliability.Scratch
module Monte_carlo = Ftcsn_reliability.Monte_carlo
module Trials = Ftcsn_sim.Trials
module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph

let component_eps = 0.1

let () =
  let jobs = Trials.recommended_jobs () in
  Format.printf
    "components: switches with eps1 = eps2 = %g (10%% open, 10%% short); \
     measuring with %d worker domains@.@."
    component_eps jobs;

  (* 1. Design gadgets for a ladder of reliability targets. *)
  Format.printf "%-12s %8s %8s %14s %14s@." "target" "size" "depth"
    "exact P[open]" "exact P[short]";
  List.iter
    (fun target ->
      let spec = Sp.design ~eps:component_eps ~eps':target in
      Format.printf "%-12g %8d %8d %14.2e %14.2e@." target (Sp.size spec)
        (Sp.depth spec)
        (Sp.open_prob spec ~eps_open:component_eps ~eps_close:component_eps)
        (Sp.short_prob spec ~eps_open:component_eps ~eps_close:component_eps))
    [ 1e-2; 1e-4; 1e-8 ];

  (* 2. Validate one design by Monte-Carlo on the built graph: one fault
        pattern per trial, counting opens and shorts together on the
        Trials engine (one preallocated workspace per worker). *)
  let target = 1e-2 in
  let spec = Sp.design ~eps:component_eps ~eps':target in
  let built = Sp.build spec in
  let rng = Rng.create ~seed:5 in
  let trials = 50_000 in
  let counts =
    Trials.map_reduce ~jobs ~trials ~rng
      ~init:(fun () -> Scratch.create built.Sp.graph)
      ~create_acc:(fun () -> [| 0; 0 |])
      ~trial:(fun sc acc sub ->
        let pattern = Scratch.pattern sc in
        Fault.sample_into sub ~eps_open:component_eps ~eps_close:component_eps
          pattern;
        if
          not
            (Survivor.connected_ignoring_opens_into sc pattern
               ~a:built.Sp.input ~b:built.Sp.output)
        then acc.(0) <- acc.(0) + 1;
        if
          Survivor.shorted_by_closure_into sc pattern ~a:built.Sp.input
            ~b:built.Sp.output
        then acc.(1) <- acc.(1) + 1)
      ~combine:(fun acc chunk ->
        acc.(0) <- acc.(0) + chunk.(0);
        acc.(1) <- acc.(1) + chunk.(1))
      ()
  in
  Format.printf
    "@.measured on the built gadget (%d trials): P[open]=%.4f P[short]=%.4f \
     (both < %g as designed)@."
    trials
    (float_of_int counts.(0) /. float_of_int trials)
    (float_of_int counts.(1) /. float_of_int trials)
    target;

  (* 3. Substitute the gadget into a 4x4 crossbar (section 3's transfer
        argument) and compare LOGICAL switch failure rates: a gadget that
        shorts acts as a closed-failed switch, one that cannot conduct as
        an open-failed switch. *)
  let crossbar = Ftcsn_networks.Crossbar.square 4 in
  let sub =
    Ftcsn_reliability.Substitution.substitute crossbar.Network.graph
      ~gadget:built
  in
  Format.printf
    "@.substituted fabric: %d physical switches standing in for 16 logical \
     ones@."
    (Digraph.edge_count sub.Ftcsn_reliability.Substitution.graph);
  let trials = 20_000 in
  let open_rate, short_rate =
    Ftcsn_reliability.Substitution.logical_rates ~jobs ~trials ~rng
      ~eps_open:component_eps ~eps_close:component_eps sub
  in
  Format.printf
    "per-logical-switch rates (%d trials): P[open]=%.4f P[short]=%.4f \
     (per-switch target was < %g)@."
    trials open_rate.Trials.mean short_rate.Trials.mean target;
  (* gadget copies are edge-disjoint, hence independent *)
  let p_any_amplified =
    1.0 -. ((1.0 -. open_rate.Trials.mean -. short_rate.Trials.mean) ** 16.0)
  in
  let bare =
    Monte_carlo.estimate ~jobs ~trials:2_000 ~rng (fun s ->
        let pattern =
          Fault.sample s ~eps_open:component_eps ~eps_close:component_eps ~m:16
        in
        Array.exists (fun st -> not (Fault.state_equal st Fault.Normal)) pattern)
  in
  Format.printf
    "P[some logical switch fails]: amplified fabric %.3f vs bare crossbar \
     %.3f@."
    p_any_amplified bare.Monte_carlo.mean
