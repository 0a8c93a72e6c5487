module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Fault = Ftcsn_reliability.Fault
module Rng = Ftcsn_prng.Rng
module Greedy = Ftcsn_routing.Greedy
module Flow_route = Ftcsn_routing.Flow_route
module Monte_carlo = Ftcsn_reliability.Monte_carlo

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
   and one edge buffer.  Probes run over the ORIGINAL graph
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
  mutable planned : int;
  (* the one edge buffer, allocated on first use ([edge_buffer]): a
     curve trial's candidates, the edges that fail at some grid point
     (the first [n_candidates]), or [critical_eps]'s sort order *)
  mutable edges : int array;
  mutable n_candidates : int;
  (* a curve trial's draws, one per edge, allocated on first curve use *)
  mutable uniforms : float array;
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
    planned = 0;
    edges = [||];
    n_candidates = 0;
    uniforms = [||];
  }

(* The last workspace built on this domain.  [survival],
   [survival_curve] and [Rare]'s estimators take theirs from here while
   the network is physically the same, so repeated runs on one network
   (a benchmark's windows, a tournament's curves, the chunks of a
   rare-event estimate) build it once per domain.  A trial
   re-initialises the state it reads, and the curve resets the pattern
   buffer when it takes the workspace, so a reused workspace behaves
   like a fresh one. *)
let slot = Ftcsn_util.Domain_slot.create ()

let domain_ws net =
  Ftcsn_util.Domain_slot.get slot
    ~fits:(fun ws -> Fault_strip.ws_net ws.fs == net)
    ~build:(fun () -> create_ws net)

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

(* the requests [perms], greedy permutations, fail to route on the
   current strip *)
let greedy_failures ws perms =
  let failures = ref 0 in
  for i = 0 to Array.length perms - 1 do
    Greedy.clear ws.greedy;
    let success = ref 0 in
    let _paths = Greedy.route_permutation ws.greedy perms.(i) ~success in
    failures := !failures + (ws.n_pairs - !success)
  done;
  !failures

let draw_permutations ws rng ~probe =
  Array.init probe.greedy_permutations (fun _ -> Rng.permutation rng ws.n_pairs)

(* The verdict chain on the current strip: shorted terminals, isolated
   inputs, then the probes — [probe]'s greedy permutations drawn from
   [rng], then the superconcentrator plan, drawn from [rng] after them. *)
let verdict ws ~rng ~probe =
  match Fault_strip.ws_shorted_terminals ws.fs with
  | _ :: _ as shorted -> Shorted shorted
  | [] -> (
      match Fault_strip.ws_isolated_inputs ws.fs with
      | _ :: _ as isolated -> Isolated isolated
      | [] ->
          let failures = greedy_failures ws (draw_permutations ws rng ~probe) in
          draw_plan ws rng ~probes:probe.sc_probes;
          let failures = failures + plan_deficit ws ~record:false ~first:false in
          if failures = 0 then Survived else Unroutable failures)

let trial_ws ?(strip_radius = 0) ?(probe = default_probe) ws ~rng ~eps =
  let pattern = Fault_strip.ws_pattern ws.fs in
  Fault.sample_into rng ~eps_open:eps ~eps_close:eps pattern;
  Fault_strip.strip_into ~radius:strip_radius ws.fs pattern;
  verdict ws ~rng ~probe

let survival ?jobs ?target_ci ?progress ?trace ~trials ~rng ~eps ?strip_radius
    ?(probe = default_probe) net =
  Monte_carlo.estimate_event ?jobs ?target_ci ?progress ?trace
    ~label:"pipeline.survival" ~trials ~rng ~m:(Network.size net)
    ~eps_open:eps ~eps_close:eps
    ~init:(fun () -> domain_ws net)
    (fun ws sub pattern ->
      Fault_strip.strip_into ?radius:strip_radius ws.fs pattern;
      verdict ws ~rng:sub ~probe = Survived)

(* ---------- the monotone part of the failure event ----------

   As ε₁ + ε₂ grows over one draw vector, the failed edge set is nested,
   so the faulty-vertex set, the stripped set and the allowed/edge_ok
   masks are nested too.  Therefore an isolated input persists at every
   larger ε, and Menger max-flow probe values are nonincreasing, so a
   flow-probe deficit persists as well.  Both depend on the faulty edge
   set only: stripping forbids a failed switch's endpoints whether it
   failed open or closed.  [Shorted] does not persist (the closed set
   {ε₁ ≤ u < ε₁ + ε₂} is not nested), and neither do greedy probes,
   which edge removal can help.  So along nested fault sets [monotone]
   is false and then true, and [first_failing] finds where it flips:
   the survival curve along its grid, [critical_eps] along the prefixes
   of a sort order. *)

(* an input isolated, or a deficit of the stored plan, on the current
   strip *)
let monotone ws ~record =
  Fault_strip.ws_isolated_inputs ws.fs <> []
  || plan_deficit ws ~record ~first:true > 0

(* the least [k] in [0, points) with [fails k], or [points] when there
   is none, for a [fails] that is false and then true: lower-bound
   bisection, at most ⌈log₂(points + 1)⌉ calls *)
let first_failing ~points fails =
  let lo = ref 0 and hi = ref points in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if fails mid then hi := mid else lo := mid + 1
  done;
  !lo

let edge_buffer ws =
  let m = Network.size (Fault_strip.ws_net ws.fs) in
  if Array.length ws.edges < m then ws.edges <- Array.make m 0;
  ws.edges

(* ---------- CRN-coupled survival curve ----------

   One draw vector per trial, thresholded at every ε grid point with
   [Fault.classify_into]'s comparisons; the probes at each point see a
   copy of the trial substream taken after the edge draws — exactly the
   stream state an independent [survival] run at that ε hands [verdict]
   — so every point of the curve is bit-identical to an independent run
   at that ε (the test suite pins this).  The same stream state means
   the same greedy permutations and the same probe plan at every point,
   so a trial draws them once and evaluates the plan with certificates.

   Sparse re-strips: a trial lists once its candidates, the edges that
   fail at the grid's largest ε and so include those failing at any
   point ([Fault.failed_edges_into]).  Each point reclassifies only
   those, listing the failed ones in the strip's own list buffer
   ([Fault.classify_listed_into]), and strips from that list
   ([Fault_strip.strip_listed]), so a point costs what its faults
   touch.
   Every other edge stays [Normal] in the pattern buffer: a trial resets
   its predecessor's candidates, and the curve resets the whole buffer
   when it takes the workspace, in which [trial_ws] and [critical_eps]
   leave failed edges.

   The walk: a trial visits the grid in ascending ε (a stable sort of
   the indices, once per call), along which [monotone] is false and then
   true.  It bisects for the first sorted position k* where [monotone]
   holds, and decides each point it visits below k* on the spot.  Then
   it strips only the points below k* the bisection did not visit.
   Every point from k* on fails; below k*, a point survives iff its
   strip shorts no terminals and every greedy permutation routes.
   Certificates are checked against the current masks, so they allow
   the out-of-order visits. *)

(* reset the previous trial's candidates to [Normal], draw this trial's
   uniforms and list the edges failed at the grid's largest [emax] *)
let draw_candidates ws sub ~emax =
  let pattern = Fault_strip.ws_pattern ws.fs in
  for i = 0 to ws.n_candidates - 1 do
    pattern.(ws.edges.(i)) <- Fault.Normal
  done;
  Fault.sample_uniforms_into sub ws.uniforms;
  ws.n_candidates <-
    Fault.failed_edges_into ~uniforms:ws.uniforms ~eps_open:emax
      ~eps_close:emax ws.edges

(* classify the candidates at ε₁ = ε₂ = [e], listing the failed ones,
   and strip *)
let restrip ws ~radius e =
  let pattern = Fault_strip.ws_pattern ws.fs in
  let failed = Fault_strip.ws_listed ws.fs in
  let count =
    Fault.classify_listed_into ~uniforms:ws.uniforms ~eps_open:e ~eps_close:e
      ~edges:ws.edges ~count:ws.n_candidates ~failed pattern
  in
  Fault_strip.strip_listed ~radius ws.fs pattern ~edges:failed ~count

(* [order] lists the grid's indices by ascending ε; [visited] marks the
   sorted positions the bisection decided *)
let walk_trial ws sub outcomes ~eps ~order ~visited ~radius ~probe =
  let rng = Rng.copy sub in
  let perms = draw_permutations ws rng ~probe in
  draw_plan ws rng ~probes:probe.sc_probes;
  (* point [k], stripped, once [monotone] does not hold there *)
  let decide k =
    if Fault_strip.ws_healthy ws.fs && greedy_failures ws perms = 0 then
      Bytes.set outcomes k '\001'
  in
  let points = Array.length order in
  Bytes.fill visited 0 points '\000';
  let k_star =
    first_failing ~points (fun i ->
        Bytes.set visited i '\001';
        restrip ws ~radius eps.(order.(i));
        monotone ws ~record:true
        || begin
             decide order.(i);
             false
           end)
  in
  for i = 0 to k_star - 1 do
    if Bytes.get visited i = '\000' then begin
      restrip ws ~radius eps.(order.(i));
      decide order.(i)
    end
  done

let survival_curve ?jobs ?progress ?trace ~trials ~rng ~eps
    ?(strip_radius = 0) ?(probe = default_probe) net =
  Array.iter (fun e -> Fault.check_probabilities ~eps_open:e ~eps_close:e) eps;
  let points = Array.length eps in
  let order = Array.init points Fun.id in
  Array.stable_sort (fun a b -> Float.compare eps.(a) eps.(b)) order;
  let emax = Array.fold_left Float.max 0.0 eps in
  Ftcsn_sim.Trials.sweep ?jobs ?progress ?trace
    ~label:"pipeline.survival_curve" ~trials ~rng ~points
    ~init:(fun () ->
      let ws = domain_ws net in
      let m = Network.size net in
      Array.fill (Fault_strip.ws_pattern ws.fs) 0 m Fault.Normal;
      ignore (edge_buffer ws);
      ws.n_candidates <- 0;
      if Array.length ws.uniforms < m then ws.uniforms <- Array.make m 0.0;
      (ws, Bytes.create points))
    (fun (ws, visited) sub outcomes ->
      draw_candidates ws sub ~emax;
      walk_trial ws sub outcomes ~eps ~order ~visited ~radius:strip_radius
        ~probe)

(* ---------- critical ε ---------- *)

let critical_eps ws u =
  let m = Network.size (Fault_strip.ws_net ws.fs) in
  if Array.length u <> m then
    invalid_arg "Pipeline.critical_eps: uniform vector length mismatch";
  let order = edge_buffer ws in
  for e = 0 to m - 1 do
    order.(e) <- e
  done;
  Array.sort (fun a b -> Float.compare u.(a) u.(b)) order;
  (* [monotone] with exactly the first [j] edges of the sort order
     faulty, open: the strip reads only those [j] edges, and the plan is
     evaluated on every prefix the bisection visits, so it records its
     certificates *)
  let pattern = Fault_strip.ws_pattern ws.fs in
  let prefix_fails j =
    Array.fill pattern 0 m Fault.Normal;
    for i = 0 to j - 1 do
      pattern.(order.(i)) <- Fault.Open_failure
    done;
    Fault_strip.strip_listed ws.fs pattern ~edges:order ~count:j;
    monotone ws ~record:true
  in
  (* the minimal failing prefix, m + 1 when even the full one passes *)
  match first_failing ~points:(m + 1) prefix_fails with
  | j when j > m -> infinity
  | 0 -> 0.0
  | j ->
      (* faulty at rate eps iff u < 2 eps, so the event needs
         u_(j-1) < 2 eps: the critical eps is u_(j-1) / 2 *)
      u.(order.(j - 1)) /. 2.0

let monotone_fails ws pattern =
  Fault_strip.strip_into ws.fs pattern;
  monotone ws ~record:false
