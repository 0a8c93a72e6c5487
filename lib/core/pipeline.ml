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
   greedy router with its BFS scratch, a prebuilt Menger flow arena and
   the trial's probe plan.  Probes run over the ORIGINAL graph with the
   strip's vertex/edge masks, never over a rebuilt survivor subgraph.
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
  }

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
   to an independent run at that ε (the test suite pins this).  The
   same stream state also means the same probe plan at every point, so
   the trial draws it once and evaluates it with certificates.

   Short-circuiting: as ε₁ + ε₂ grows over one draw vector, the
   non-normal edge set {u < ε₁ + ε₂} is nested, so the faulty-vertex
   set, the stripped set, and the allowed/edge_ok masks are nested too.
   Therefore [Isolated] persists at every later (larger) ε, and Menger
   max-flow probe values are nonincreasing, so a flow-probe [Unroutable]
   persists as well.  On a nondecreasing grid those verdicts let a trial
   skip its remaining points and record them as failures — provably the
   same outcomes, a fraction of the work.  [Shorted] never
   short-circuits (the closed set {ε₁ ≤ u < ε₁ + ε₂} is not nested),
   and greedy probes are not monotone under edge removal, so
   [Unroutable] only short-circuits for flow-only probes.

   Unchanged-pattern memo: if re-thresholding at the next grid point
   flips no edge ([Fault.classify_into_changed] returns [false]) the
   whole evaluation is a pure function of inputs it already saw —
   same pattern, same strip, and the probe runs on a fresh [Rng.copy]
   of the same substream state — so the previous point's outcome is
   reused verbatim.  At small ε most trials draw no u below the moving
   thresholds, which is precisely the regime where curves need many
   grid points, so this removes most strip+probe work there without
   changing a single outcome. *)

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
  let flow_only = probe.greedy_permutations = 0 in
  Ftcsn_sim.Trials.sweep ?jobs ?progress ?trace
    ~label:"pipeline.survival_curve" ~trials ~rng ~points
    ~init:(fun () -> create_ws net)
    (fun ws sub outcomes ->
      let sc = Fault_strip.ws_scratch ws.fs in
      let uniforms = Ftcsn_reliability.Scratch.uniforms sc in
      let pattern = Fault_strip.ws_pattern ws.fs in
      Fault.sample_uniforms_into sub uniforms;
      ws.planned <- -1;
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
            Fault_strip.strip_into ~radius:strip_radius ws.fs pattern;
            match verdict ws ~rng:(Rng.copy sub) ~probe ~record:true with
            | Survived -> prev_ok := true
            | Shorted _ -> prev_ok := false
            | Isolated _ ->
                prev_ok := false;
                if sorted then dead := true
            | Unroutable _ ->
                prev_ok := false;
                if sorted && flow_only then dead := true
          end;
          if !prev_ok then Bytes.set outcomes k '\001'
        end
      done)
