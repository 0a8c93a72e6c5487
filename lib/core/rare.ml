module Network = Ftcsn_networks.Network
module Fault = Ftcsn_reliability.Fault
module Splitting = Ftcsn_reliability.Splitting

type ws = {
  pipe : Pipeline.ws;
  order : int array;  (* edge ids, sorted by the current uniform vector *)
}

let create_ws net =
  {
    pipe = Pipeline.create_ws net;
    order = Array.init (Network.size net) Fun.id;
  }

let size ws = Array.length ws.order

let prepare ws rng =
  Pipeline.draw_plan ws.pipe rng ~probes:Pipeline.sc_probe_only.sc_probes

(* monotone part of the verdict chain for the CURRENT strip state:
   isolated inputs, or a flow deficit on the stored probe plan.  Both
   depend on the faulty edge set only (stripping forbids a faulty
   switch's endpoints whatever its failure mode), so forcing the faulty
   prefix to Open_failure in [threshold] loses no generality. *)
let monotone_of_strip ws ~record =
  Fault_strip.ws_isolated_inputs (Pipeline.ws_fault_strip ws.pipe) <> []
  || Pipeline.plan_deficit ws.pipe ~record ~first:true > 0

(* the plan is drawn in full before the first deficit stops the flow
   queries, so stream consumption stays fixed *)
let fails ws rng pattern =
  let fs = Pipeline.ws_fault_strip ws.pipe in
  Fault_strip.strip_into fs pattern;
  Fault_strip.ws_shorted_terminals fs <> []
  || Fault_strip.ws_isolated_inputs fs <> []
  || begin
       prepare ws rng;
       Pipeline.plan_deficit ws.pipe ~record:false ~first:true > 0
     end

let monotone_fails ws pattern =
  Fault_strip.strip_into (Pipeline.ws_fault_strip ws.pipe) pattern;
  monotone_of_strip ws ~record:false

(* does the monotone event hold when exactly the first [j] edges of the
   sort order are faulty?  The strip reads only those [j] edges.  The
   plan is evaluated on every prefix the bisection visits, so it
   records its certificates. *)
let prefix_fails ws j =
  let fs = Pipeline.ws_fault_strip ws.pipe in
  let pattern = Fault_strip.ws_pattern fs in
  Array.fill pattern 0 (size ws) Fault.Normal;
  for i = 0 to j - 1 do
    pattern.(ws.order.(i)) <- Fault.Open_failure
  done;
  Fault_strip.strip_listed fs pattern ~edges:ws.order ~count:j;
  monotone_of_strip ws ~record:true

let threshold ws u =
  let m = size ws in
  if Array.length u <> m then
    invalid_arg "Rare.threshold: uniform vector length mismatch";
  let order = ws.order in
  for e = 0 to m - 1 do
    order.(e) <- e
  done;
  Array.sort (fun a b -> Float.compare u.(a) u.(b)) order;
  (* the minimal failing prefix, m + 1 when even the full one passes *)
  match Pipeline.first_failing ~points:(m + 1) (prefix_fails ws) with
  | j when j > m -> infinity
  | 0 -> 0.0
  | j ->
      (* faulty at rate eps iff u < 2 eps, so the event needs
         u_(j-1) < 2 eps: the critical eps is u_(j-1) / 2 *)
      u.(order.(j - 1)) /. 2.0

(* ---------- drivers ---------- *)

let tune_tilt ?iters ?trials ?per_edge ?trace ~rng ~eps net =
  Splitting.cross_entropy ?iters ?trials ?per_edge ?trace ~rng
    ~m:(Network.size net) ~eps_open:eps ~eps_close:eps
    ~init:(fun () -> create_ws net)
    ~event:fails ()

let failure_tilted ?jobs ?trace ~trials ~rng ~eps ~tilt net =
  Splitting.tilted ?jobs ?trace ~label:"rare.tilt" ~trials ~rng
    ~m:(Network.size net) ~eps_open:eps ~eps_close:eps ~tilt
    ~init:(fun () -> create_ws net)
    ~event:fails ()

let failure_tilted_curve ?jobs ?trace ~trials ~rng ~grid ~tilt net =
  Splitting.tilted_curve ?jobs ?trace ~label:"rare.tilt_curve" ~trials ~rng
    ~m:(Network.size net)
    ~grid:(Array.map (fun e -> (e, e)) grid)
    ~tilt
    ~init:(fun () -> create_ws net)
    ~event:fails ()

let pilot_schedule ?particles ?p0 ?mutate ?trace ~rng ~eps net =
  Splitting.pilot ?particles ?p0 ?mutate ?trace ~rng ~m:(Network.size net)
    ~target:eps
    ~init:(fun () -> create_ws net)
    ~prepare ~threshold ()

let failure_split ?jobs ?trace ?mutate ~trials ~rng ~schedule net =
  Splitting.run ?jobs ?trace ~label:"rare.split" ?mutate ~trials ~rng
    ~m:(Network.size net) ~schedule
    ~init:(fun () -> create_ws net)
    ~prepare ~threshold ()
