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

type probe = {
  greedy_permutations : int;
  exact_permutations : int;
  exact_budget : int;
  sc_probes : int;
  majority_probes : int;
}

let default_probe =
  {
    greedy_permutations = 1;
    exact_permutations = 0;
    exact_budget = 200_000;
    sc_probes = 2;
    majority_probes = 0;
  }

let sc_probe_only =
  {
    greedy_permutations = 0;
    exact_permutations = 0;
    exact_budget = 0;
    sc_probes = 3;
    majority_probes = 0;
  }

(* ---------- trial workspace ----------

   Every per-trial structure lives in a workspace: the strip state, a
   greedy router with its BFS scratch, and a prebuilt Menger flow arena.
   Probes run over the ORIGINAL graph with the strip's vertex/edge masks,
   never over a rebuilt survivor subgraph.  Every probe decision is
   order-for-order identical to one on the rebuilt subgraph (CSR
   adjacency preserves edge-id order under subgraphing, BFS distances and
   max-flow values are tie-break independent), so verdicts are
   bit-identical to the rebuilding oracle in [test/strip_ref.ml]; the
   qcheck suite pins this. *)

type ws = {
  ws_net : Network.t;
  fs : Fault_strip.ws;
  greedy : Greedy.t;
  flow : Flow_route.ws;
  forbidden : int -> bool;
}

let create_ws net =
  let fs = Fault_strip.create_ws net in
  let allowed = Fault_strip.ws_allowed fs in
  let edge_ok = Fault_strip.ws_edge_ok fs in
  {
    ws_net = net;
    fs;
    greedy = Greedy.create ~allowed ~edge_ok net;
    flow = Flow_route.create_ws net;
    forbidden = (fun v -> not (allowed v));
  }

let route_probe_ws ws ~rng ~probe =
  let net = ws.ws_net in
  let allowed = Fault_strip.ws_allowed ws.fs in
  let edge_ok = Fault_strip.ws_edge_ok ws.fs in
  let n = min (Network.n_inputs net) (Network.n_outputs net) in
  let failures = ref 0 in
  for _ = 1 to probe.greedy_permutations do
    let pi = Rng.permutation rng n in
    Greedy.clear ws.greedy;
    let success = ref 0 in
    let _paths = Greedy.route_permutation ws.greedy pi ~success in
    failures := !failures + (n - !success)
  done;
  for _ = 1 to probe.exact_permutations do
    let pi = Rng.permutation rng n in
    let requests =
      Array.to_list
        (Array.mapi
           (fun i o -> (net.Network.inputs.(i), net.Network.outputs.(o)))
           pi)
    in
    match
      Ftcsn_routing.Backtrack.route_all ~budget:probe.exact_budget ~allowed
        ~edge_ok net requests
    with
    | Ftcsn_routing.Backtrack.Routed _ -> ()
    | Ftcsn_routing.Backtrack.Unroutable
    | Ftcsn_routing.Backtrack.Budget_exceeded ->
        incr failures
  done;
  for _ = 1 to probe.sc_probes do
    let r = 1 + Rng.int rng n in
    let s = Rng.sample_without_replacement rng ~n ~k:r in
    let t = Rng.sample_without_replacement rng ~n ~k:r in
    let achieved =
      Flow_route.max_throughput_ws ~forbidden:ws.forbidden ~edge_ok ws.flow
        ~input_indices:s ~output_indices:t
    in
    if achieved < r then failures := !failures + (r - achieved)
  done;
  if probe.majority_probes > 0 then begin
    if
      not
        (Majority_access.sampled_busy_majority ~trials:probe.majority_probes
           ~rng ~allowed ~edge_ok ~rev:(Fault_strip.ws_rev ws.fs) net)
    then incr failures
  end;
  !failures

let trial_ws ?(strip_radius = 0) ?(probe = default_probe) ws ~rng ~eps =
  let pattern = Fault_strip.ws_pattern ws.fs in
  Fault.sample_into rng ~eps_open:eps ~eps_close:eps pattern;
  Fault_strip.strip_into ~radius:strip_radius ws.fs pattern;
  match Fault_strip.ws_shorted_terminals ws.fs with
  | _ :: _ as shorted -> Shorted shorted
  | [] -> (
      match Fault_strip.ws_isolated_inputs ws.fs with
      | _ :: _ as isolated -> Isolated isolated
      | [] ->
          let failures = route_probe_ws ws ~rng ~probe in
          if failures = 0 then Survived else Unroutable failures)

let survival ?jobs ?target_ci ?progress ?trace ~trials ~rng ~eps ?strip_radius
    ?probe net =
  Ftcsn_sim.Trials.run_scratch ?jobs ?target_ci ?progress ?trace
    ~label:"pipeline.survival" ~trials ~rng
    ~init:(fun () -> create_ws net)
    (fun ws sub ->
      match trial_ws ?strip_radius ?probe ws ~rng:sub ~eps with
      | Survived -> true
      | Shorted _ | Isolated _ | Unroutable _ -> false)

(* ---------- CRN-coupled survival curve ----------

   One draw vector per trial, thresholded at every ε grid point
   ([Fault.classify_into]); the probe stream for each point is a fresh
   [Rng.copy] of the trial substream taken after the edge draws —
   exactly the stream state an independent [survival] run at that ε
   would hand its probes — so every point of the curve is bit-identical
   to an independent run at that ε (the test suite pins this).

   Short-circuiting: as ε₁ + ε₂ grows over one draw vector, the
   non-normal edge set {u < ε₁ + ε₂} is nested, so the faulty-vertex
   set, the stripped set, and the allowed/edge_ok masks are nested too.
   Therefore [Isolated] persists at every later (larger) ε, and Menger
   max-flow probe values are nonincreasing, so a flow-probe [Unroutable]
   persists as well.  On a nondecreasing grid those verdicts let a trial
   skip its remaining points and record them as failures — provably the
   same outcomes, a fraction of the work.  [Shorted] never
   short-circuits (the closed set {ε₁ ≤ u < ε₁ + ε₂} is not nested),
   and greedy/backtracking/majority probes are not monotone under edge
   removal, so [Unroutable] only short-circuits for flow-only probes.

   Unchanged-pattern memo: if re-thresholding at the next grid point
   flips no edge ([Fault.classify_into_changed] returns [false]) the
   whole evaluation is a pure function of inputs it already saw —
   same pattern, same strip, and the probe runs on a fresh [Rng.copy]
   of the same substream state — so the previous point's outcome is
   reused verbatim.  At small ε most trials draw no u below the moving
   thresholds, which is precisely the regime where curves need many
   grid points, so this removes most strip+probe work there without
   changing a single outcome.

   Certificate reuse (flow-only probes): every point probes from a fresh
   [Rng.copy] of the same substream state, so the probe PLAN — the
   (r, S, T) triple of each superconcentrator probe — is identical at
   every point of one trial.  A full-success probe yields r
   vertex-disjoint paths: the greedy paths of [Flow_route]'s
   certificate when they all route, else the paths of Dinic's unit
   flow.  As long as every vertex and edge on those paths is still
   unmasked at a later point, the same paths witness max-flow = r there
   (no flow exceeds r), so the probe's answer is known without routing
   anything.  The check is against the CURRENT masks, so it needs no
   grid ordering and survives intervening skipped or shorted points.
   Only a probe whose certificate was touched by the re-threshold
   cascade pays for a new probe (which refreshes its certificate). *)

type curve_cache = {
  mutable plan_ready : bool;
  plan_r : int array; (* per sc probe: requested throughput r *)
  plan_s : int array array; (* per sc probe: chosen input indices *)
  plan_t : int array array; (* per sc probe: chosen output indices *)
  cert_full : bool array; (* per sc probe: stored cert achieved full r *)
  used_v : int array array; (* per sc probe: vertices on the cert paths *)
  used_v_len : int array;
  used_e : int array array; (* per sc probe: edge ids on the cert paths *)
  used_e_len : int array;
}

let create_curve_cache net ~sc_probes =
  let nv = Digraph.vertex_count net.Network.graph in
  let k = max 1 sc_probes in
  {
    plan_ready = false;
    plan_r = Array.make k 0;
    plan_s = Array.make k [||];
    plan_t = Array.make k [||];
    cert_full = Array.make k false;
    (* the certificate's paths are vertex-disjoint and leave each of
       their vertices by at most one edge, so both buffers fit in
       vertex_count slots *)
    used_v = Array.init k (fun _ -> Array.make nv 0);
    used_v_len = Array.make k 0;
    used_e = Array.init k (fun _ -> Array.make nv 0);
    used_e_len = Array.make k 0;
  }

(* Flow-only probe evaluation with the per-trial certificate cache.
   Draw-for-draw the plan equals what [route_probe_ws] would draw from
   the same [rng], and every skipped probe returns the max-flow value it
   would have computed, so the failure count is bit-identical. *)
let sc_probes_cached ws cc ~rng ~sc_probes =
  let net = ws.ws_net in
  let n = min (Network.n_inputs net) (Network.n_outputs net) in
  if not cc.plan_ready then begin
    for i = 0 to sc_probes - 1 do
      cc.plan_r.(i) <- 1 + Rng.int rng n;
      cc.plan_s.(i) <-
        Rng.sample_without_replacement rng ~n ~k:cc.plan_r.(i);
      cc.plan_t.(i) <-
        Rng.sample_without_replacement rng ~n ~k:cc.plan_r.(i)
    done;
    cc.plan_ready <- true
  end;
  let allowed = Fault_strip.ws_allowed ws.fs in
  let edge_ok = Fault_strip.ws_edge_ok ws.fs in
  let failures = ref 0 in
  for i = 0 to sc_probes - 1 do
    let r = cc.plan_r.(i) in
    let cert_intact =
      cc.cert_full.(i)
      &&
      let ok = ref true in
      let uv = cc.used_v.(i) in
      for j = 0 to cc.used_v_len.(i) - 1 do
        if not (allowed uv.(j)) then ok := false
      done;
      if !ok then begin
        let ue = cc.used_e.(i) in
        for j = 0 to cc.used_e_len.(i) - 1 do
          if not (edge_ok ue.(j)) then ok := false
        done
      end;
      !ok
    in
    if not cert_intact then begin
      let achieved, nv, ne =
        Flow_route.max_throughput_cert_ws ~forbidden:ws.forbidden ~edge_ok
          ws.flow ~input_indices:cc.plan_s.(i) ~output_indices:cc.plan_t.(i)
          ~used_vertices:cc.used_v.(i) ~used_edges:cc.used_e.(i)
      in
      cc.used_v_len.(i) <- nv;
      cc.used_e_len.(i) <- ne;
      cc.cert_full.(i) <- achieved = r;
      if achieved < r then failures := !failures + (r - achieved)
    end
  done;
  !failures

let survival_curve ?jobs ?progress ?trace ~trials ~rng ~eps
    ?(strip_radius = 0) ?(probe = default_probe) net =
  let points = Array.length eps in
  let sorted =
    let ok = ref true in
    for k = 1 to points - 1 do
      if eps.(k) < eps.(k - 1) then ok := false
    done;
    !ok
  in
  let flow_only =
    probe.greedy_permutations = 0
    && probe.exact_permutations = 0
    && probe.majority_probes = 0
  in
  Ftcsn_sim.Trials.sweep ?jobs ?progress ?trace
    ~label:"pipeline.survival_curve" ~trials ~rng ~points
    ~init:(fun () ->
      (create_ws net, create_curve_cache net ~sc_probes:probe.sc_probes))
    (fun (ws, cc) sub outcomes ->
      let sc = Fault_strip.ws_scratch ws.fs in
      let uniforms = Ftcsn_reliability.Scratch.uniforms sc in
      let pattern = Fault_strip.ws_pattern ws.fs in
      Fault.sample_uniforms_into sub uniforms;
      cc.plan_ready <- false;
      Array.fill cc.cert_full 0 (Array.length cc.cert_full) false;
      let dead = ref false in
      (* [fresh]: the pattern buffer still holds the previous trial's
         residue, so the first live point must evaluate even if the
         classification happens to leave it unchanged.  [prev_ok] is the
         outcome of the last evaluated point, reused while the pattern
         stays identical. *)
      let fresh = ref true in
      let prev_ok = ref false in
      for k = 0 to points - 1 do
        if not !dead then begin
          let e = eps.(k) in
          let changed =
            Fault.classify_into_changed ~uniforms ~eps_open:e ~eps_close:e
              pattern
          in
          if changed || !fresh then begin
            fresh := false;
            prev_ok := false;
            Fault_strip.strip_into ~radius:strip_radius ws.fs pattern;
            (match Fault_strip.ws_shorted_terminals ws.fs with
            | _ :: _ -> ()
            | [] -> (
                match Fault_strip.ws_isolated_inputs ws.fs with
                | _ :: _ -> if sorted then dead := true
                | [] ->
                    let failures =
                      if flow_only then
                        sc_probes_cached ws cc ~rng:(Rng.copy sub)
                          ~sc_probes:probe.sc_probes
                      else route_probe_ws ws ~rng:(Rng.copy sub) ~probe
                    in
                    if failures = 0 then prev_ok := true
                    else if sorted && flow_only then dead := true))
          end;
          if !prev_ok then Bytes.set outcomes k '\001'
        end
      done)
