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
    probe plan with one disjoint-path certificate per probe, and one
    edge buffer, allocated on first use, that holds a curve trial's
    candidate edges or {!critical_eps}'s sort order.
    Probes run over the original graph under the strip's vertex/edge
    masks, so no per-trial subgraph is ever rebuilt.  Single-domain
    state. *)

val create_ws : Ftcsn_networks.Network.t -> ws

val domain_ws : Ftcsn_networks.Network.t -> ws
(** The last workspace built on the calling domain, kept in a
    [Domain.DLS] slot and reused while the network is physically the
    same ([==]); otherwise a fresh one, which replaces it in the slot.
    {!survival}, {!survival_curve} and {!Rare}'s estimators take their
    workspaces here, so repeated runs on one network build one per
    domain; a reused workspace gives the same results as a fresh one,
    also after a run that raised. *)

val trial_ws :
  ?strip_radius:int ->
  ?probe:probe ->
  ws ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  verdict
(** One fault sample at ε₁ = ε₂ = [eps] into the workspace's pattern
    buffer, stripped at [strip_radius] (default 0) and probed: the
    verdict a {!survival} trial reaches on the same stream, with its
    reason.  The steady state allocates only probe permutations/index
    sets and returned paths.  The qcheck suite pins the verdicts against
    the subgraph-rebuilding oracle in [test/strip_ref.ml]. *)

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
    {!critical_eps}'s prefixes); a plan evaluated once passes [false]
    and skips the extraction. *)

val monotone_fails : ws -> Ftcsn_reliability.Fault.pattern -> bool
(** The monotone part of the failure event on an explicit pattern under
    the stored probe plan: strip, then an isolated input or a flow-probe
    deficit (shorted terminals ignored — they are the non-monotone
    part).  Depends on the pattern only through its faulty edge set.
    Requires a plan ({!draw_plan}).  It reuses no certificate, so the
    tests scan it over prefixes as the reference for {!critical_eps}
    and enumerate it for the splitting exactness check. *)

val critical_eps : ws -> float array -> float
(** φ(u), {!Rare}'s importance function: the critical ε of the monotone
    failure event under the stored probe plan, for a per-edge uniform
    vector [u] (+∞ if even the all-faulty network passes — does not
    occur on the paper's families).  At rate ε the faulty edges are
    [{e : u_e < 2ε}], a prefix of the edges sorted by u, so φ(u) =
    u₍ⱼ₎/2 for the minimal failing prefix j, found by lower-bound
    bisection.  Cost: one sort of u plus ⌈log₂(m + 2)⌉ strips, each
    reading only the edges of its prefix ({!Fault_strip.strip_listed});
    a probe whose certificate from an earlier prefix or call is still
    unmasked is not routed again.
    @raise Invalid_argument when [u] does not have one entry per edge. *)

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
    perturbing the estimate.  Trials run on
    {!Ftcsn_reliability.Monte_carlo.estimate_event} with one {!ws}
    workspace per worker domain ({!domain_ws}): each strips its pattern
    and reaches the verdict {!trial_ws} would. *)

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

    A trial visits the grid points in ascending ε, whatever the grid's
    order (a stable sort of its indices, once per call).  Along that
    order the failed edge sets are nested, so the monotone part of the
    failure event — an isolated input or a flow-probe deficit — is false
    and then true, while [Shorted] and greedy probes are not monotone.
    The trial draws the greedy permutations and the probe plan once,
    bisects for the first point where the monotone part holds, and
    decides each point the bisection visits below it on the spot; then
    it strips only the earlier points the bisection did not visit.  Every
    point from the first failing one on fails, and an earlier point
    survives iff its strip shorts no terminals and every greedy
    permutation routes.  The plan records its certificates
    ({!plan_deficit}): while a probe's paths stay unmasked at another
    point, they answer it there without routing anything, in whatever
    order the points are visited.

    Estimates across the curve are positively correlated — ideal for
    reading off threshold locations and curve differences (Raginsky-
    style phase-transition plots) at far lower variance than pointwise
    independent runs.
    @raise Invalid_argument when some grid ε is not in [[0, 1/2]]. *)
