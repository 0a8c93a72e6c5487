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
  exact_permutations : int;
      (** permutations routed by exact backtracking — probes the
          {e rearrangeable} property *)
  exact_budget : int;  (** backtracking budget per permutation *)
  sc_probes : int;
      (** random (r, S, T) flow probes — the {e superconcentrator}
          property, exactly decidable per probe by Menger *)
  majority_probes : int;
      (** sampled busy configurations checked for Lemma 6's
          majority-access property — the paper's own sufficient condition
          for nonblocking containment (§6) *)
}

val default_probe : probe
(** one greedy permutation, no exact permutations, two flow probes *)

val sc_probe_only : probe
(** flow probes only — the class-fair workload for comparing networks that
    are not nonblocking *)

type ws
(** Per-domain trial workspace: strip state
    ({!Ftcsn_networks.Network.t}-sized bitsets, union-find, BFS arrays),
    a greedy router with its scratch, and a {!Ftcsn_routing.Flow_route}
    workspace (a greedy path certificate, then a prebuilt Menger flow
    arena on a shortfall).
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
    only [sc_probes]) persist at every later point, so trials
    short-circuit their remaining points once such a verdict occurs —
    identical results, a fraction of the probe work.  [Shorted] and
    non-flow probes are re-evaluated at every point (not monotone).

    Flow-only probes also keep a per-trial certificate: the r
    vertex-disjoint paths of the probe's last full success, greedy paths
    or Dinic's.  While all of them stay unmasked at a later point, they
    answer the probe there without routing anything.

    Estimates across the curve are positively correlated — ideal for
    reading off threshold locations and curve differences (Raginsky-
    style phase-transition plots) at far lower variance than pointwise
    independent runs. *)
