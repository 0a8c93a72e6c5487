(** Rare-event estimation of the paper's failure probability δ(ε).

    This is the glue between the generic estimators of
    {!Ftcsn_reliability.Splitting} and the paper's failure event: it
    exposes the survival pipeline's verdict chain (shorted terminals →
    isolated inputs → superconcentrator flow probes, the
    [Pipeline.sc_probe_only] workload) both as a plain event for tilted
    importance sampling and as a scalar importance function for
    multilevel splitting.  The probe plan and its evaluation are
    {!Pipeline}'s own ({!Pipeline.draw_plan}, {!Pipeline.plan_deficit}),
    so both estimate exactly the event {!Pipeline.survival} does.

    {2 The importance function}

    For splitting, φ(u) maps a per-edge uniform vector to its
    {e critical ε}: under the CRN coupling the faulty edge set at rate ε
    is [{e : u_e < 2ε}] — a prefix of the edges sorted by u, nested as ε
    grows.  The {e monotone} part of the failure event (isolated inputs,
    or a flow-probe deficit; both depend on the faulty set only, because
    stripping forbids a faulty switch's endpoints whether it failed open
    or closed) therefore flips exactly once along that prefix order, and
    {!Pipeline.critical_eps} finds the flip by bisection: φ(u) = u₍ⱼ₎/2
    for the minimal failing prefix j, so
    [P[φ ≤ ε] = P[monotone failure at ε]].
    Shorted-terminal failures (a {e closed} path between terminals, not
    monotone in ε) are excluded from φ; they are O(ε²) against the
    monotone event's O(ε), and {!failure_tilted} — which measures the
    {e full} event — quantifies the gap.

    Probe plans (the r, S, T draws of each superconcentrator probe) are
    fixed per trial from the trial's substream, so φ is a deterministic
    function of (plan, u) and both estimators target the same
    plan-averaged failure probability as [Pipeline.survival]. *)

val fails :
  Pipeline.ws -> Ftcsn_prng.Rng.t -> Ftcsn_reliability.Fault.pattern -> bool
(** The full failure event on a sampled pattern: terminals shorted, an
    input isolated, or a superconcentrator probe deficit (a plan drawn
    from the given stream, like [Pipeline.trial_ws] under
    [Pipeline.sc_probe_only]).  One event for the plain and the tilted
    estimate: {!Ftcsn_reliability.Monte_carlo.estimate_event} of it on
    {!Pipeline.domain_ws} fails exactly the trials
    {!Pipeline.survival} under [sc_probe_only] does not survive (same
    seed, same trials; test_rare pins the partition), and
    {!Ftcsn_reliability.Splitting.tilted} weights it. *)

val prepare : Pipeline.ws -> Ftcsn_prng.Rng.t -> unit
(** Draw and store this trial's plan of [Pipeline.sc_probe_only]'s 3
    probes; {!Pipeline.critical_eps} evaluates against it, reusing its
    certificates, until the next [prepare]. *)

(** {2 Drivers}

    All take the paper's symmetric rate (ε₁ = ε₂ = ε) and run on
    {!Ftcsn_sim.Trials}, with the per-domain workspace of
    {!Pipeline.domain_ws} that {!Pipeline.survival} and
    {!Pipeline.survival_curve} use — estimates are bit-identical at
    every [jobs].  Pilot phases are sequential on the caller's stream,
    so a pilot + estimate sequence is deterministic end to end. *)

val tune_tilt :
  ?iters:int ->
  ?trials:int ->
  ?per_edge:bool ->
  ?trace:Ftcsn_obs.Trace.sink ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  Ftcsn_networks.Network.t ->
  Ftcsn_reliability.Splitting.tilt
(** Cross-entropy tilt for the full failure event at ε. *)

val failure_tilted :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  tilt:Ftcsn_reliability.Splitting.tilt ->
  Ftcsn_networks.Network.t ->
  Ftcsn_reliability.Splitting.estimate
(** Tilted importance-sampling estimate of P[failure at ε] — the exact
    complement of [Pipeline.survival]'s event under sc-only probes. *)

val failure_tilted_curve :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  grid:float array ->
  tilt:Ftcsn_reliability.Splitting.tilt ->
  Ftcsn_networks.Network.t ->
  Ftcsn_reliability.Splitting.estimate array
(** One estimate per grid ε, all sharing each trial's sampled pattern
    and event evaluation (only the likelihood weights differ) — the
    rare-event analogue of [Pipeline.survival_curve]. *)

val pilot_schedule :
  ?particles:int ->
  ?p0:float ->
  ?mutate:float ->
  ?trace:Ftcsn_obs.Trace.sink ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  Ftcsn_networks.Network.t ->
  Ftcsn_reliability.Splitting.schedule
(** Auto-tuned level ladder down to target ε for {!failure_split}. *)

val failure_split :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?mutate:float ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  schedule:Ftcsn_reliability.Splitting.schedule ->
  Ftcsn_networks.Network.t ->
  Ftcsn_reliability.Splitting.estimate
(** Multilevel-splitting estimate of the monotone failure probability
    P[φ ≤ ε] at the schedule's target ε. *)
