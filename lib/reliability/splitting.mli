(** Rare-event estimators for the paper's ε = 10⁻⁶ operating regime.

    Theorem 2 fixes ε = 10⁻⁶, where failure probabilities sit at
    10⁻⁴–10⁻¹² and plain Monte-Carlo — even the CRN ε-curve sweeps —
    observes zero failures at any affordable trial count.  This module
    provides the two standard variance-reduction families for static
    rare-event estimation, both driven through {!Ftcsn_sim.Trials} so
    estimates stay bit-identical at every [jobs] count:

    {ul
    {- {e Multilevel splitting} (RESTART): the failure event is expressed
       through a scalar importance function φ(u) of the per-edge uniform
       vector u — here the {e critical ε}: the smallest failure rate at
       which thresholding u produces a failing fault set
       ([Ftcsn.Pipeline.critical_eps] supplies it for the paper's networks).  The rare set [{φ ≤ ε}] is reached
       through a nested ladder of intermediate levels
       [L₀ > L₁ > … > ε]; particles that cross a level are cloned and
       mutated by a Markov kernel that leaves the conditional law
       [U[0,1)ᵐ | φ ≤ Lᵈ] invariant (block Metropolis: resample a random
       coordinate subset, accept iff the constraint still holds).  The
       per-trial estimator — leaves at the last level over the product of
       splitting factors — is unbiased for [P[φ ≤ ε]] for {e any} level
       schedule; {!pilot} only tunes the schedule for variance.}
    {- {e Cross-entropy tilted importance sampling}: fault patterns are
       drawn at inflated per-edge probabilities ({!tilt}), each trial
       weighted by its likelihood ratio against the target (ε₁, ε₂).
       Unbiased for {e any} event (monotone or not); {!cross_entropy}
       tunes the tilt by iterating the CE update on weighted fault
       frequencies among observed failures.  {!tilted_curve} shares one
       sampled pattern per trial across a whole (ε₁, ε₂) grid — only the
       weights change per point — so a rare-event curve costs one event
       evaluation per trial, CRN-comparable across grid points.}}

    Both estimators report a {!estimate} with relative error and a
    variance-ratio diagnostic (per-trial variance of a plain-MC Bernoulli
    trial at the same mean over this estimator's per-trial variance — the
    headline "how many MC trials does one of ours buy").  Pilot phases
    ({!pilot}, {!cross_entropy}) run sequentially on the caller's stream;
    estimation fans out on the {!Ftcsn_sim.Trials} scheduler.
    Diagnostics accumulate in [Ftcsn_obs.Metrics.default] under
    [rare.*]. *)

type estimate = {
  mean : float;  (** point estimate of the failure probability *)
  rel_err : float;
      (** standard error over mean ([infinity] when the mean is zero —
          the estimator saw no failure mass) *)
  ci_low : float;  (** normal-approximation 95% interval, clamped at 0 *)
  ci_high : float;
  trials : int;  (** independent root trials executed *)
  var_per_trial : float;  (** sample variance of the per-trial estimator *)
  variance_ratio : float;
      (** [mean·(1−mean) / var_per_trial]: plain-MC Bernoulli variance at
          the same mean over this estimator's per-trial variance *)
  evals : int;
      (** importance-function / event evaluations performed (the cost
          unit for efficiency comparisons) *)
}

val pp : Format.formatter -> estimate -> unit
(** Render as ["mean [lo, hi] rel_err=… (trials)"]. *)

(** {2 Multilevel splitting} *)

type schedule = {
  levels : float array;
      (** strictly decreasing; [levels.(K-1)] is the target ε *)
  splits : int array;
      (** length [K-1]; [splits.(d)] children per particle crossing from
          level [d] to [d+1] *)
  entry_rate : float;
      (** pilot estimate of [P[φ ≤ levels.(0)]] (diagnostic only) *)
}

val pilot :
  ?particles:int ->
  ?p0:float ->
  ?mutate:float ->
  ?trace:Ftcsn_obs.Trace.sink ->
  rng:Ftcsn_prng.Rng.t ->
  m:int ->
  target:float ->
  init:(unit -> 'ws) ->
  prepare:('ws -> Ftcsn_prng.Rng.t -> unit) ->
  threshold:('ws -> float array -> float) ->
  unit ->
  schedule
(** Auto-tune a level schedule by an adaptive-quantile cascade: maintain
    a population of [particles] (default 256) uniform vectors, repeatedly
    set the next level to the [p0]-quantile (default 0.2) of their φ
    values, then rebuild the population from the survivors by 6
    constrained Metropolis moves (each resampling a [mutate] fraction of
    coordinates, default 0.2).  Stops when the quantile
    reaches [target]; splitting factors are the rounded inverse of each
    observed conditional crossing rate.  Sequential and deterministic in
    [rng]; [prepare] is called once, so the whole pilot runs under one
    probe plan — the schedule is a tuning input only, any schedule keeps
    {!run} unbiased.  Each level is wrapped in a [rare.pilot.level-d]
    trace span.  @raise Invalid_argument if [target] is not reached
    within 40 levels, or if no particle lies strictly below a level; the
    message names the arguments to change. *)

val run :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  ?mutate:float ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  m:int ->
  schedule:schedule ->
  init:(unit -> 'ws) ->
  prepare:('ws -> Ftcsn_prng.Rng.t -> unit) ->
  threshold:('ws -> float array -> float) ->
  unit ->
  estimate
(** Estimate [P[φ ≤ levels.(K-1)]] from [trials] independent splitting
    replicates on the {!Ftcsn_sim.Trials} scheduler (bit-identical at
    every [jobs]).  Each trial draws a root vector on its own substream
    ([prepare] first fixes any per-trial randomness of φ, e.g. a probe
    plan), then grows the splitting tree depth-first: a particle at level
    [d] spawns [splits.(d)] children by one constrained Metropolis move
    at level [d], and a child survives to level [d+1] iff its φ clears
    [levels.(d+1)].  The per-trial estimator is the leaf count over
    [Π splits], so with a 1-level schedule ([levels = [|ε|]]) this {e is}
    plain Monte-Carlo.  Memory per worker is K + 1 vectors of length
    [m].  Per-level spawn/survival counts land in
    [rare.split.level*] counters. *)

(** {2 Cross-entropy tilted importance sampling} *)

type tilt = {
  t_open : float array;  (** per-edge open-failure sampling probability *)
  t_close : float array;
}

val uniform_tilt : m:int -> eps_open:float -> eps_close:float -> tilt
(** The constant tilt sampling every edge at (eps_open, eps_close). *)

val cross_entropy :
  ?iters:int ->
  ?trials:int ->
  ?per_edge:bool ->
  ?trace:Ftcsn_obs.Trace.sink ->
  rng:Ftcsn_prng.Rng.t ->
  m:int ->
  eps_open:float ->
  eps_close:float ->
  init:(unit -> 'ws) ->
  event:('ws -> Ftcsn_prng.Rng.t -> Fault.pattern -> bool) ->
  unit ->
  tilt
(** Tune a tilt for the target (eps_open, eps_close) by [iters] (default
    4) cross-entropy iterations of [trials] (default 1000) samples each:
    draw at the current tilt, weight failures by their likelihood ratio
    against the target, and move the tilt half way toward the weighted
    fault frequency among failures (pooled across edges by default;
    [per_edge] keeps one rate per edge).  The returned tilt is floored
    at the target probabilities — per-edge likelihood ratios on failed
    edges never exceed 1, so weights cannot blow up — and capped away
    from 1.
    An iteration that observes no failure doubles the tilt instead.
    Sequential and deterministic in [rng]; each iteration is wrapped in a
    [rare.ce.iter-k] trace span.  The starting tilt inflates the target
    so a sample averages a handful of faulty switches. *)

val tilted :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  m:int ->
  eps_open:float ->
  eps_close:float ->
  tilt:tilt ->
  init:(unit -> 'ws) ->
  event:('ws -> Ftcsn_prng.Rng.t -> Fault.pattern -> bool) ->
  unit ->
  estimate
(** Estimate [P[event]] under the target (eps_open, eps_close) by
    importance sampling at [tilt]: each trial draws a pattern with
    {!Fault.sample_tilted_into} on its own substream, evaluates [event]
    (the substream, positioned after the per-edge draws, is passed
    through for probe randomness), and contributes its likelihood ratio
    when the event holds.  Exactly unbiased for any event and any valid
    tilt.  The workspace and event are those of
    {!Monte_carlo.estimate_event}, so one event function serves the
    plain and the tilted estimate of the same probability.  Runs on
    {!Ftcsn_sim.Trials} — bit-identical at every [jobs]. *)

val tilted_curve :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  m:int ->
  grid:(float * float) array ->
  tilt:tilt ->
  init:(unit -> 'ws) ->
  event:('ws -> Ftcsn_prng.Rng.t -> Fault.pattern -> bool) ->
  unit ->
  estimate array
(** One estimate per (eps_open, eps_close) grid point, all from the
    {e same} [trials] patterns sampled at [tilt]: the sampled pattern —
    and therefore the event evaluation — is shared across the grid; only
    the likelihood ratio differs per point (it depends on the pattern
    only through its open/closed fault counts).  The whole rare-event
    curve costs one event evaluation per trial and the points are
    CRN-comparable, the tilted analogue of {!Monte_carlo.estimate_curve}.
    [tilted] of a point agrees with the corresponding entry of a
    [tilted_curve] up to floating-point association.  Points far from
    the tilt carry larger [rel_err]; widen the grid only with a tilt
    tuned near its geometric centre. *)
