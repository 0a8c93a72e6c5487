(** Monte-Carlo estimation of failure probabilities with confidence
    intervals.

    The (ε, δ) properties of §3 are expectations over fault patterns; above
    ~13 edges exact enumeration of all 3^m patterns is infeasible, so experiments
    estimate them from seeded samples and report Wilson 95% intervals.

    These are thin façades over the {!Ftcsn_sim.Trials} engine.  Plain
    Monte-Carlo estimates of a fault-pattern event draw their patterns
    here, a single ε in {!estimate_event} and a CRN curve in
    {!estimate_curve}; only the survival curve's bisecting walk
    ([Ftcsn.Pipeline.survival_curve]) and the estimators that judge one
    draw several ways ({!Importance}, {!Substitution}, {!Splitting}) keep
    their own.  Trial [i] runs on the [i]-th substream of [rng], so
    estimates are bit-identical at every [jobs] and a [jobs:1] run
    reproduces the historical sequential split-per-trial loop exactly.
    [target_ci] enables adaptive stopping (run until the Wilson 95%
    half-width drops below it, capped at [trials]); [progress] reports
    cumulative counts and throughput after each chunk; [trace]/[label]
    stream the engine's structured JSONL events (chunk timings, stopping
    decisions) to an [Ftcsn_obs.Trace] sink without perturbing any
    estimate. *)

type estimate = Ftcsn_sim.Trials.estimate = {
  successes : int;
  trials : int;
  mean : float;
  ci_low : float;
  ci_high : float;
}

val of_counts : successes:int -> trials:int -> estimate

val estimate :
  ?jobs:int ->
  ?target_ci:float ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  (Ftcsn_prng.Rng.t -> bool) ->
  estimate
(** Run the Bernoulli experiment up to [trials] times on independent
    substreams of [rng]; the estimate is of P[true]. *)

val estimate_event :
  ?jobs:int ->
  ?target_ci:float ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  m:int ->
  eps_open:float ->
  eps_close:float ->
  init:(unit -> 'ws) ->
  ('ws -> Ftcsn_prng.Rng.t -> Fault.pattern -> bool) ->
  estimate
(** P[event] over fault patterns of [m] switches, each open with
    probability [eps_open] and closed with [eps_close].  Each chunk
    builds [init ()] and an [m]-switch pattern; a trial fills the
    pattern from its substream ({!Fault.sample_into}: [m] uniforms in
    switch order), then calls [event ws sub pattern] with [sub] just
    past those draws, so an event that draws more (a probe plan, a
    permutation) draws after them — the contract {!Splitting.tilted}
    shares.  The event must not retain the workspace or the pattern. *)

val estimate_curve :
  ?jobs:int ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  ?monotone_event:bool ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  m:int ->
  grid:(float * float) array ->
  init:(unit -> 'ws) ->
  ('ws -> Ftcsn_prng.Rng.t -> Fault.pattern -> bool) ->
  estimate array
(** Coupled ε-curve: one estimate per [(eps_open, eps_close)] grid point,
    all over the same [trials] executions (common random numbers).  A
    trial draws [m] uniforms once ({!Fault.sample_uniforms_into}); at
    each point it evaluates, it thresholds them ({!Fault.classify_into})
    and calls the event with a fresh [Rng.copy] of the substream past
    the draws.  So every point equals an {!estimate_event} run at that
    point, an event that draws sees the same values at every point, and
    curve differences have far lower variance than independent runs.

    [monotone_event:true] asserts the event is nondecreasing along the
    grid order within every trial (true e.g. for open-connectivity
    failure on a grid sorted by ascending [eps_open] with [eps_close]
    fixed at 0, where the usable-edge set only shrinks); once a trial's
    indicator turns true, later points are recorded true without
    re-evaluating — a pure short-circuit, identical results by the
    asserted monotonicity.  Default [false].

    No adaptive stopping; deterministic at every [jobs], tracing
    observational, [label] defaults to ["monte_carlo.curve"].
    @raise Invalid_argument on a grid point {!Fault.sample} would
    reject. *)

val pp : Format.formatter -> estimate -> unit
