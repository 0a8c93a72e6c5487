module Network = Ftcsn_networks.Network
module Splitting = Ftcsn_reliability.Splitting

let prepare ws rng =
  Pipeline.draw_plan ws rng ~probes:Pipeline.sc_probe_only.sc_probes

(* the plan is drawn in full before the first deficit stops the flow
   queries, so stream consumption stays fixed *)
let fails ws rng pattern =
  let fs = Pipeline.ws_fault_strip ws in
  Fault_strip.strip_into fs pattern;
  Fault_strip.ws_shorted_terminals fs <> []
  || Fault_strip.ws_isolated_inputs fs <> []
  || begin
       prepare ws rng;
       Pipeline.plan_deficit ws ~record:false ~first:true > 0
     end

(* ---------- drivers ---------- *)

let tune_tilt ?iters ?trials ?per_edge ?trace ~rng ~eps net =
  Splitting.cross_entropy ?iters ?trials ?per_edge ?trace ~rng
    ~m:(Network.size net) ~eps_open:eps ~eps_close:eps
    ~init:(fun () -> Pipeline.domain_ws net)
    ~event:fails ()

let failure_tilted ?jobs ?trace ~trials ~rng ~eps ~tilt net =
  Splitting.tilted ?jobs ?trace ~label:"rare.tilt" ~trials ~rng
    ~m:(Network.size net) ~eps_open:eps ~eps_close:eps ~tilt
    ~init:(fun () -> Pipeline.domain_ws net)
    ~event:fails ()

let failure_tilted_curve ?jobs ?trace ~trials ~rng ~grid ~tilt net =
  Splitting.tilted_curve ?jobs ?trace ~label:"rare.tilt_curve" ~trials ~rng
    ~m:(Network.size net)
    ~grid:(Array.map (fun e -> (e, e)) grid)
    ~tilt
    ~init:(fun () -> Pipeline.domain_ws net)
    ~event:fails ()

let pilot_schedule ?particles ?p0 ?mutate ?trace ~rng ~eps net =
  Splitting.pilot ?particles ?p0 ?mutate ?trace ~rng ~m:(Network.size net)
    ~target:eps
    ~init:(fun () -> Pipeline.domain_ws net)
    ~prepare ~threshold:Pipeline.critical_eps ()

let failure_split ?jobs ?trace ?mutate ~trials ~rng ~schedule net =
  Splitting.run ?jobs ?trace ~label:"rare.split" ?mutate ~trials ~rng
    ~m:(Network.size net) ~schedule
    ~init:(fun () -> Pipeline.domain_ws net)
    ~prepare ~threshold:Pipeline.critical_eps ()
