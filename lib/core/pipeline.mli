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
    ({!Ftcsn_networks.Network.t}-sized bitsets, union-find, BFS arrays),
    a greedy router with its scratch, a {!Ftcsn_routing.Flow_route}
    workspace (a greedy path certificate, then a prebuilt Menger flow
    arena on a shortfall), and the trial's probe plan with one
    disjoint-path certificate per probe.
    Probes run over the original graph under the strip's vertex/edge
    masks, so no per-trial subgraph is ever rebuilt.  Single-domain
    state: create one per worker via the {!Ftcsn_sim.Trials.run_scratch}
    [~init] hook (as {!survival} does). *)

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

    On a nondecreasing grid the nested-fault-set structure makes
    [Isolated] (always) and flow-probe [Unroutable] (when [probe] has
    no greedy permutations) persist at every later point, so trials
    short-circuit their remaining points once such a verdict occurs —
    identical results, a fraction of the probe work.  [Shorted] and
    greedy probes are re-evaluated at every point (not monotone).

    Every point draws the same probe plan, so a trial draws it once and
    records its certificates ({!plan_deficit}): while a probe's paths
    stay unmasked at a later point, they answer it there without
    routing anything.

    Estimates across the curve are positively correlated — ideal for
    reading off threshold locations and curve differences (Raginsky-
    style phase-transition plots) at far lower variance than pointwise
    independent runs. *)
