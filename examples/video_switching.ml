(* Video switching under switch failures.

   The paper's opening motivation: metallic-contact switches, still common
   in video switching, suffer open and closed failures.  This example runs
   a day of call traffic (Poisson arrivals, unit-mean holding times)
   through three switch fabrics wired from the same unreliable
   components, with switches failing during the day, and compares the
   fraction of requests between idle terminals that get through:

   - the paper's fault-tolerant construction,
   - a strictly nonblocking Clos fabric (no fault tolerance), and
   - a Benes fabric (rearrangeable only, no fault tolerance).

   A failed switch stays failed; the fabric strips it and routes around
   it, and a call crossing it is rerouted when a path remains.

   Run with: dune exec examples/video_switching.exe *)

module Rng = Ftcsn_prng.Rng
module Network = Ftcsn_networks.Network
module Traffic = Ftcsn_des.Traffic

let n = 8
let day = 1_000.0
let load = 4.0 (* offered Erlangs: about half the call slots busy *)

let run_day ~rng ~eps name net =
  (* a switch failing at rate 1/mtbf has failed by the end of the day
     with probability 1 - exp (-day/mtbf) = 2 eps, open or closed with
     equal odds *)
  let mtbf =
    if eps = 0.0 then infinity else -.day /. log (1.0 -. (2.0 *. eps))
  in
  let config =
    Traffic.config ~load ~mtbf ~mttr:infinity ~stop:(Traffic.Horizon day) ()
  in
  let s = Traffic.run ~rng ~config net in
  match s.Traffic.catastrophe_at with
  | Some t ->
      Format.printf "%-16s catastrophic at t=%.0f: terminals shorted together@."
        name t
  | None ->
      (* a request finding every input or output busy is a capacity
         limit, not a routing failure *)
      let requests = s.Traffic.offered - s.Traffic.blocked_full in
      let blocked = s.Traffic.blocked - s.Traffic.blocked_full in
      let grade =
        if blocked = 0 then "perfect service"
        else
          Printf.sprintf "%.2f%% of requests blocked"
            (100.0 *. float_of_int blocked /. float_of_int requests)
      in
      Format.printf "%-16s %5d requests, %5d served, %4d blocked, %3d \
                     failures — %s@."
        name requests s.Traffic.served blocked s.Traffic.failures grade

let () =
  let rng = Rng.create ~seed:7 in
  let ft =
    (Ftcsn.Ft_network.make ~rng (Ftcsn.Ft_params.scaled ~u:3 ())).Ftcsn
    .Ft_network
    .net
  in
  let clos = Ftcsn_networks.Clos.nonblocking ~n in
  let benes = Ftcsn_networks.Benes.network (Ftcsn_networks.Benes.make n) in
  List.iter
    (fun eps ->
      Format.printf "@.== component failure rate eps = %g ==@." eps;
      run_day ~rng ~eps "ft-construction" ft;
      run_day ~rng ~eps "clos-snb" clos;
      run_day ~rng ~eps "benes" benes)
    [ 0.0; 0.005; 0.02; 0.05 ];
  Format.printf
    "@.The fault-tolerant fabric costs %d switches vs %d (Clos) and %d \
     (Benes) — the log^2 n premium of Theorem 2 buys service through fault \
     rates that break the classical fabrics.@."
    (Network.size ft) (Network.size clos) (Network.size benes)
