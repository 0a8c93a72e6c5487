(** End-to-end (ε, δ) estimation: sample faults, strip, and test whether
    the survivor still performs (paper, §3's definition made operational).

    The (ε, δ)-property asks that the surviving normal-state switches
    contain the desired network with probability > δ.  Containment is
    verified exactly only for tiny networks; the operational proxies here
    follow the paper's own §4 recipe — strip faulty vertices, then route
    greedily — and report which step failed:

    - [Shorted]: two terminals contracted by closed failures (Lemma 7);
    - [Isolated]: an input lost all its paths to the outputs (Lemma 3);
    - [Unroutable]: the stripped network failed to route the probe
      workload (a sampled permutation and/or superconcentrator probes);
    - [Survived]: everything passed. *)

type verdict =
  | Survived
  | Shorted of (int * int) list
  | Isolated of int list
  | Unroutable of int  (** number of failed probe requests *)

type probe = {
  greedy_permutations : int;
      (** permutations routed greedily — probes {e nonblocking}-style
          operation (the paper's §4 claim is that greedy routing works on
          𝒩; it does {e not} work on merely-rearrangeable networks such as
          Beneš even fault-free) *)
  sc_probes : int;
      (** random (r, S, T) flow probes — the {e superconcentrator}
          property, exactly decidable per probe by Menger *)
}

val default_probe : probe
(** one greedy permutation, two flow probes *)

val sc_probe_only : probe
(** flow probes only — the class-fair workload for comparing networks that
    are not nonblocking *)

type ws
(** Per-domain trial workspace: strip state
    ({!Ftcsn_networks.Network.t}-sized bitsets, union-find, search
    arrays), a greedy router with its scratch, a
    {!Ftcsn_routing.Flow_route} workspace (a greedy path certificate,
    then a Menger flow arena built on the first shortfall), the trial's
    probe plan with one disjoint-path certificate per probe, and the
    curve's candidate-edge list.
    Probes run over the original graph under the strip's vertex/edge
    masks, so no per-trial subgraph is ever rebuilt.  Single-domain
    state.  {!survival} and {!survival_curve} keep the last workspace
    built on each domain in a [Domain.DLS] slot and reuse it while the
    network is physically the same ([==]), so repeated runs on one
    network build one per domain; a reused workspace gives the same
    results as a fresh one, also after a run that raised. *)

val create_ws : Ftcsn_networks.Network.t -> ws

val trial_ws :
  ?strip_radius:int ->
  ?probe:probe ->
  ws ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  verdict
(** One fault sample at ε₁ = ε₂ = [eps], stripped at [strip_radius]
    (default 0) and probed, on the workspace: the steady state allocates
    only probe permutations/index sets and returned paths.  The qcheck
    suite pins the verdicts against the subgraph-rebuilding oracle in
    [test/strip_ref.ml]. *)

(** {2 The probe plan}

    The superconcentrator half of the failure event, shared with
    {!Rare}: a trial's plan is the (r, S, T) of each probe, and a probe
    {e fails} by its deficit, r minus the Menger max-flow between S and
    T on the current strip. *)

val ws_fault_strip : ws -> Fault_strip.ws
(** The strip state the verdicts read: strip a pattern into it with
    {!Fault_strip.strip_into} before {!plan_deficit}. *)

val draw_plan : ws -> Ftcsn_prng.Rng.t -> probes:int -> unit
(** Draw the trial's plan of [probes] probes from the stream, probe by
    probe: r uniform in [1, n] (n = min(inputs, outputs)), then S, then
    T, each r distinct terminal indices — the draws {!trial_ws} makes
    after its greedy permutations.  Forgets every certificate. *)

val plan_deficit : ws -> record:bool -> first:bool -> int
(** The plan's summed deficit on the current strip, or with [first] the
    first nonzero deficit alone (0 when every probe routes).  A probe
    whose recorded certificate — the r vertex-disjoint paths of its last
    full success — is still unmasked is answered by it without routing.
    [record] keeps a certificate of each full success, for a plan
    evaluated on further strips ({!survival_curve}'s grid points,
    {!Rare.threshold}'s prefixes); a plan evaluated once passes
    [false] and skips the extraction. *)

val first_failing : points:int -> (int -> bool) -> int
(** The least [k] in [[0, points)] with [fails k], or [points] when there
    is none, for a [fails] that is false and then true along [[0,
    points)] (a monotone event on nested fault sets).  Lower-bound
    bisection: it calls [fails] at most ⌈log₂(points + 1)⌉ times.
    {!survival_curve} finds a trial's first failing grid point with it,
    and {!Rare.threshold} its minimal failing prefix. *)

val survival :
  ?jobs:int ->
  ?target_ci:float ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  ?strip_radius:int ->
  ?probe:probe ->
  Ftcsn_networks.Network.t ->
  Ftcsn_reliability.Monte_carlo.estimate
(** Monte-Carlo estimate of P[trial = Survived], on the
    {!Ftcsn_sim.Trials} engine: one substream per trial, so the estimate
    is identical at every [jobs]; [target_ci] stops early once the Wilson
    95% half-width is small enough.  [trace] streams the engine's
    structured JSONL events (chunk timings, stopping decisions) without
    perturbing the estimate.  Trials run {!trial_ws} on one {!ws}
    workspace per worker domain. *)

val survival_curve :
  ?jobs:int ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float array ->
  ?strip_radius:int ->
  ?probe:probe ->
  Ftcsn_networks.Network.t ->
  Ftcsn_reliability.Monte_carlo.estimate array
(** Coupled survival curve over an ε grid in one fan-out of [trials]
    trials (common random numbers, {!Ftcsn_sim.Trials.sweep}).  Each
    trial draws one uniform per edge, thresholds that draw vector at
    every grid point, and probes each resulting survivor with a fresh
    copy of the trial substream — exactly the stream an independent
    {!survival} run at that ε would use — so {e every point of the
    curve is bit-identical to an independent [survival] run} at that ε
    with the same [rng] state and [trials] (no [target_ci]), while the
    whole curve costs roughly one run's sampling plus the un-skippable
    probing.

    A trial lists once the edges that fail anywhere on the grid (a
    uniform below the largest ε +. ε), and each point re-thresholds and
    strips only those ({!Fault_strip.strip_listed}), so a point costs
    what its faults touch rather than O(n + m).

    On a nondecreasing grid the failed edge sets are nested, so
    [Isolated] (always) and a flow-probe deficit persist at every later
    point; [Shorted] and greedy probes are not monotone.  With
    flow-only probes ([probe] has no greedy permutations), a trial
    therefore finds the first grid point where an input is isolated or
    the plan has a deficit by bisection ({!first_failing}): every point
    from there on fails, and an earlier point survives iff its strip
    shorts no terminals.  Other grids and presets evaluate point by
    point: on a nondecreasing grid a trial skips its remaining points
    once [Isolated] occurs, and a point whose re-thresholding flips no
    edge reuses the previous point's outcome.  All of these give the
    same outcomes as evaluating every point.

    Every point draws the same probe plan, so a trial draws it once and
    records its certificates ({!plan_deficit}): while a probe's paths
    stay unmasked at another point, they answer it there without
    routing anything, in whatever order the points are visited.

    Estimates across the curve are positively correlated — ideal for
    reading off threshold locations and curve differences (Raginsky-
    style phase-transition plots) at far lower variance than pointwise
    independent runs.
    @raise Invalid_argument when some grid ε is not in [[0, 1/2]]. *)
