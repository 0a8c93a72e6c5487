module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Rng = Ftcsn_prng.Rng
module Greedy = Ftcsn_routing.Greedy
module Flow_route = Ftcsn_routing.Flow_route

type verdict =
  | Survived
  | Shorted of (int * int) list
  | Isolated of int list
  | Unroutable of int

type probe = { greedy_permutations : int; sc_probes : int }

let default_probe = { greedy_permutations = 1; sc_probes = 2 }

let sc_probe_only = { greedy_permutations = 0; sc_probes = 3 }

(* ---------- trial workspace ----------

   Every per-trial structure lives in a workspace: the strip state, a
   greedy router with its BFS scratch, a Menger flow arena (built on the
   first probe the certificate does not answer), the trial's probe plan
   and the curve's candidate edges.  Probes run over the ORIGINAL graph
   with the strip's vertex/edge masks, never over a rebuilt survivor
   subgraph.
   Every probe decision is order-for-order identical to one on the
   rebuilt subgraph (CSR adjacency preserves edge-id order under
   subgraphing, BFS distances and max-flow values are tie-break
   independent), so verdicts are bit-identical to the rebuilding oracle
   in [test/strip_ref.ml]; the qcheck suite pins this.

   Certificate reuse: a full-success probe yields r vertex-disjoint
   paths, the greedy paths of [Flow_route]'s certificate when they all
   route, else the paths of Dinic's unit flow.  As long as every vertex
   and edge on those paths is unmasked, the same paths witness
   max-flow = r (no flow exceeds r), so a later evaluation of the same
   plan knows the probe's answer without routing anything.  The check
   is against the CURRENT masks, so it needs no ordering among the
   strips a plan is evaluated on. *)

(* one superconcentrator probe of the plan, and the certificate of its
   last full success while [certified] holds *)
type slot = {
  mutable r : int;
  mutable s : int array;  (* input indices *)
  mutable t : int array;  (* output indices *)
  mutable certified : bool;
  (* the certificate's paths are vertex-disjoint and leave each of their
     vertices by at most one edge, so both buffers get vertex_count
     slots, on the first recording query *)
  mutable used_v : int array;
  mutable nv : int;
  mutable used_e : int array;
  mutable ne : int;
}

type ws = {
  fs : Fault_strip.ws;
  greedy : Greedy.t;
  flow : Flow_route.ws;
  forbidden : int -> bool;
  n_pairs : int;  (* min(inputs, outputs): probe demands live in [1, n] *)
  mutable plan : slot array;  (* its first [planned] slots *)
  mutable planned : int;  (* -1 until the trial's plan is drawn *)
  (* a curve trial's candidates, the edges that fail at some grid point:
     the first [n_candidates], in a buffer the first curve allocates *)
  mutable candidates : int array;
  mutable n_candidates : int;
}

let create_ws net =
  let fs = Fault_strip.create_ws net in
  let allowed = Fault_strip.ws_allowed fs in
  let edge_ok = Fault_strip.ws_edge_ok fs in
  {
    fs;
    greedy = Greedy.create ~allowed ~edge_ok net;
    flow = Flow_route.create_ws net;
    forbidden = (fun v -> not (allowed v));
    n_pairs = min (Network.n_inputs net) (Network.n_outputs net);
    plan = [||];
    planned = -1;
    candidates = [||];
    n_candidates = 0;
  }

(* The last workspace built on this domain.  [survival] and
   [survival_curve] take theirs from here while the network is
   physically the same, so repeated runs on one network (a benchmark's
   windows, a tournament's curves) build it once per domain.  A trial
   re-initialises the state it reads, and the curve resets the pattern
   buffer when it takes the workspace, so a reused workspace behaves
   like a fresh one. *)
let slot : ws option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let domain_ws net =
  match Domain.DLS.get slot with
  | Some ws when Fault_strip.ws_net ws.fs == net -> ws
  | Some _ | None ->
      let ws = create_ws net in
      Domain.DLS.set slot (Some ws);
      ws

let ws_fault_strip ws = ws.fs

let draw_plan ws rng ~probes =
  let have = Array.length ws.plan in
  if have < probes then
    ws.plan <-
      Array.init probes (fun i ->
          if i < have then ws.plan.(i)
          else
            {
              r = 0;
              s = [||];
              t = [||];
              certified = false;
              used_v = [||];
              nv = 0;
              used_e = [||];
              ne = 0;
            });
  let n = ws.n_pairs in
  for i = 0 to probes - 1 do
    let p = ws.plan.(i) in
    p.r <- 1 + Rng.int rng n;
    p.s <- Rng.sample_without_replacement rng ~n ~k:p.r;
    p.t <- Rng.sample_without_replacement rng ~n ~k:p.r;
    p.certified <- false
  done;
  ws.planned <- probes

let intact p ~allowed ~edge_ok =
  let ok = ref true and j = ref 0 in
  while !ok && !j < p.nv do
    ok := allowed p.used_v.(!j);
    incr j
  done;
  j := 0;
  while !ok && !j < p.ne do
    ok := edge_ok p.used_e.(!j);
    incr j
  done;
  !ok

let plan_deficit ws ~record ~first =
  let allowed = Fault_strip.ws_allowed ws.fs in
  let edge_ok = Fault_strip.ws_edge_ok ws.fs in
  let deficit = ref 0 and i = ref 0 in
  while !i < ws.planned && not (first && !deficit > 0) do
    let p = ws.plan.(!i) in
    if not (p.certified && intact p ~allowed ~edge_ok) then begin
      let achieved =
        if record then begin
          if Array.length p.used_v = 0 then begin
            let net = Fault_strip.ws_net ws.fs in
            let nv = Digraph.vertex_count net.Network.graph in
            p.used_v <- Array.make nv 0;
            p.used_e <- Array.make nv 0
          end;
          let achieved, nv, ne =
            Flow_route.max_throughput_cert_ws ~forbidden:ws.forbidden ~edge_ok
              ws.flow ~input_indices:p.s ~output_indices:p.t
              ~used_vertices:p.used_v ~used_edges:p.used_e
          in
          p.nv <- nv;
          p.ne <- ne;
          p.certified <- achieved = p.r;
          achieved
        end
        else
          Flow_route.max_throughput_ws ~forbidden:ws.forbidden ~edge_ok
            ws.flow ~input_indices:p.s ~output_indices:p.t
      in
      deficit := !deficit + (p.r - achieved)
    end;
    incr i
  done;
  !deficit

(* The verdict chain on the current strip: shorted terminals, isolated
   inputs, then the probes — [probe]'s greedy permutations drawn from
   [rng], then the superconcentrator plan, drawn from [rng] after them
   unless the trial already holds it. *)
let verdict ws ~rng ~probe ~record =
  match Fault_strip.ws_shorted_terminals ws.fs with
  | _ :: _ as shorted -> Shorted shorted
  | [] -> (
      match Fault_strip.ws_isolated_inputs ws.fs with
      | _ :: _ as isolated -> Isolated isolated
      | [] ->
          let n = ws.n_pairs in
          let failures = ref 0 in
          for _ = 1 to probe.greedy_permutations do
            let pi = Rng.permutation rng n in
            Greedy.clear ws.greedy;
            let success = ref 0 in
            let _paths = Greedy.route_permutation ws.greedy pi ~success in
            failures := !failures + (n - !success)
          done;
          if ws.planned < 0 then draw_plan ws rng ~probes:probe.sc_probes;
          let failures = !failures + plan_deficit ws ~record ~first:false in
          if failures = 0 then Survived else Unroutable failures)

let trial_ws ?(strip_radius = 0) ?(probe = default_probe) ws ~rng ~eps =
  let pattern = Fault_strip.ws_pattern ws.fs in
  Fault.sample_into rng ~eps_open:eps ~eps_close:eps pattern;
  Fault_strip.strip_into ~radius:strip_radius ws.fs pattern;
  ws.planned <- -1;
  verdict ws ~rng ~probe ~record:false

let survival ?jobs ?target_ci ?progress ?trace ~trials ~rng ~eps ?strip_radius
    ?probe net =
  Ftcsn_sim.Trials.run_scratch ?jobs ?target_ci ?progress ?trace
    ~label:"pipeline.survival" ~trials ~rng
    ~init:(fun () -> domain_ws net)
    (fun ws sub ->
      match trial_ws ?strip_radius ?probe ws ~rng:sub ~eps with
      | Survived -> true
      | Shorted _ | Isolated _ | Unroutable _ -> false)

(* ---------- CRN-coupled survival curve ----------

   One draw vector per trial, thresholded at every ε grid point with
   [Fault.classify_into]'s comparisons; the probe stream for each point
   is a fresh [Rng.copy] of the trial substream taken after the edge
   draws — exactly the stream state an independent [survival] run at
   that ε would hand its probes — so every point of the curve is
   bit-identical to an independent run at that ε (the test suite pins
   this).  The same stream state also means the same probe plan at every
   point, so the trial draws it once and evaluates it with certificates.

   Sparse re-strips: a trial lists once its candidates, the edges that
   fail at the grid's largest ε and so include those failing at any
   point ([Fault.failed_edges_into]).  Each point reclassifies only
   those, listing the failed ones in the strip's own list buffer
   ([Fault.classify_listed_into]), and strips from that list
   ([Fault_strip.strip_listed]), so a point costs what its faults
   touch.
   Every other edge stays [Normal] in the pattern buffer: a trial resets
   its predecessor's candidates, and the curve resets the whole buffer
   when it takes the workspace.

   Monotonicity: as ε₁ + ε₂ grows over one draw vector, the failed edge
   set is nested, so the faulty-vertex set, the stripped set and the
   allowed/edge_ok masks are nested too.  Therefore [Isolated] persists
   at every later (larger) ε, and Menger max-flow probe values are
   nonincreasing, so a flow-probe deficit persists as well.  [Shorted]
   does not (the closed set {ε₁ ≤ u < ε₁ + ε₂} is not nested), and
   neither do greedy probes, which edge removal can help.

   Bisection: on a nondecreasing grid with flow-only probes, "an input
   is isolated or the plan has a deficit" is false and then true along
   the grid, so its first failing point k* is found by bisection
   ([first_failing]).  Every point from k* on fails; below k*, a point
   survives iff its strip shorts no terminals.  Certificates are checked
   against the current masks, so they allow the out-of-order visits.

   Scan: other grids and presets evaluate the verdict point by point.
   On a nondecreasing grid a trial skips its remaining points once
   [Isolated] occurs — the same outcomes, since it persists.
   Unchanged-pattern memo: if re-thresholding at the next point flips no
   edge, the evaluation is a pure function of inputs it already saw
   (same pattern, same strip, a fresh copy of the same stream), so the
   previous point's outcome is reused verbatim. *)

let first_failing ~points fails =
  let lo = ref 0 and hi = ref points in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if fails mid then hi := mid else lo := mid + 1
  done;
  !lo

(* reset the previous trial's candidates to [Normal], draw this trial's
   uniforms and list the edges failed at the grid's largest [emax] *)
let draw_candidates ws sub ~emax =
  let uniforms = Ftcsn_reliability.Scratch.uniforms (Fault_strip.ws_scratch ws.fs) in
  let pattern = Fault_strip.ws_pattern ws.fs in
  for i = 0 to ws.n_candidates - 1 do
    pattern.(ws.candidates.(i)) <- Fault.Normal
  done;
  Fault.sample_uniforms_into sub uniforms;
  ws.n_candidates <-
    Fault.failed_edges_into ~uniforms ~eps_open:emax ~eps_close:emax
      ws.candidates

(* classify the candidates at ε₁ = ε₂ = [e], listing the failed ones;
   strip when some state changed or [force], and say whether it did
   (otherwise the strip before stands) *)
let restrip ws ~radius ~force e =
  let uniforms = Ftcsn_reliability.Scratch.uniforms (Fault_strip.ws_scratch ws.fs) in
  let pattern = Fault_strip.ws_pattern ws.fs in
  let failed = Fault_strip.ws_listed ws.fs in
  let count, changed =
    Fault.classify_listed_into ~uniforms ~eps_open:e ~eps_close:e
      ~edges:ws.candidates ~count:ws.n_candidates ~failed pattern
  in
  let stripped = changed || force in
  if stripped then
    Fault_strip.strip_listed ~radius ws.fs pattern ~edges:failed ~count;
  stripped

let bisected_trial ws sub outcomes ~eps ~radius ~probe =
  draw_plan ws (Rng.copy sub) ~probes:probe.sc_probes;
  let k_star =
    first_failing ~points:(Array.length eps) (fun k ->
        ignore (restrip ws ~radius ~force:true eps.(k));
        Fault_strip.ws_isolated_inputs ws.fs <> []
        || plan_deficit ws ~record:true ~first:true > 0)
  in
  for k = 0 to k_star - 1 do
    ignore (restrip ws ~radius ~force:true eps.(k));
    if Fault_strip.ws_healthy ws.fs then Bytes.set outcomes k '\001'
  done

(* [fresh]: the first point evaluates even if it leaves the all-normal
   buffer unchanged.  [prev_ok] is the outcome of the last evaluated
   point, reused while the pattern stays identical. *)
let scanned_trial ws sub outcomes ~eps ~sorted ~radius ~probe =
  ws.planned <- -1;
  let dead = ref false and fresh = ref true and prev_ok = ref false in
  for k = 0 to Array.length eps - 1 do
    if not !dead then begin
      if restrip ws ~radius ~force:!fresh eps.(k) then begin
        fresh := false;
        match verdict ws ~rng:(Rng.copy sub) ~probe ~record:true with
        | Survived -> prev_ok := true
        | Shorted _ | Unroutable _ -> prev_ok := false
        | Isolated _ ->
            prev_ok := false;
            dead := sorted
      end;
      if !prev_ok then Bytes.set outcomes k '\001'
    end
  done

let survival_curve ?jobs ?progress ?trace ~trials ~rng ~eps
    ?(strip_radius = 0) ?(probe = default_probe) net =
  let sorted = ref true in
  Array.iteri
    (fun k e ->
      Fault.check_probabilities ~eps_open:e ~eps_close:e;
      if k > 0 && e < eps.(k - 1) then sorted := false)
    eps;
  let emax = Array.fold_left Float.max 0.0 eps in
  let radius = strip_radius in
  let bisect = !sorted && probe.greedy_permutations = 0 in
  Ftcsn_sim.Trials.sweep ?jobs ?progress ?trace
    ~label:"pipeline.survival_curve" ~trials ~rng ~points:(Array.length eps)
    ~init:(fun () ->
      let ws = domain_ws net in
      let m = Network.size net in
      Array.fill (Fault_strip.ws_pattern ws.fs) 0 m Fault.Normal;
      if Array.length ws.candidates < m then ws.candidates <- Array.make m 0;
      ws.n_candidates <- 0;
      ws)
    (fun ws sub outcomes ->
      draw_candidates ws sub ~emax;
      if bisect then bisected_trial ws sub outcomes ~eps ~radius ~probe
      else scanned_trial ws sub outcomes ~eps ~sorted:!sorted ~radius ~probe)
