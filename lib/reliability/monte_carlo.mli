(** Monte-Carlo estimation of failure probabilities with confidence
    intervals.

    The (ε, δ) properties of §3 are expectations over fault patterns; above
    ~13 edges exact enumeration (see {!Exact}) is infeasible, so experiments
    estimate them from seeded samples and report Wilson 95% intervals.

    These are thin façades over the {!Ftcsn_sim.Trials} engine: trial [i]
    runs on the [i]-th substream of [rng], so estimates are bit-identical
    at every [jobs] and a [jobs:1] run reproduces the historical
    sequential split-per-trial loop exactly.  [target_ci] enables adaptive
    stopping (run until the Wilson 95% half-width drops below it, capped
    at [trials]); [progress] reports cumulative counts and throughput
    after each chunk; [trace]/[label] stream the engine's structured
    JSONL events (chunk timings, stopping decisions) to an
    [Ftcsn_obs.Trace] sink without perturbing any estimate. *)

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

val estimate_event_scratch :
  ?jobs:int ->
  ?target_ci:float ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  graph:Ftcsn_graph.Digraph.t ->
  eps_open:float ->
  eps_close:float ->
  (Scratch.t -> bool) ->
  estimate
(** Specialisation of {!estimate}: each trial refills the pattern
    buffer of a per-worker {!Scratch} workspace on [graph]
    ({!Fault.sample_into}, no per-trial allocation) and tests the event,
    which can use the allocation-free [Survivor.*_into] operations
    ({!Scratch.pattern} is the freshly sampled pattern).  The workspace
    is scratch: the callback must not retain it across trials. *)

val estimate_curve :
  ?jobs:int ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  ?monotone_event:bool ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  graph:Ftcsn_graph.Digraph.t ->
  grid:(float * float) array ->
  (Scratch.t -> bool) ->
  estimate array
(** Coupled ε-curve: one estimate per [(eps_open, eps_close)] grid point,
    all sharing the same [trials] executions.  Each trial draws one
    uniform per edge ({!Fault.sample_uniforms_into} into the workspace's
    {!Scratch.uniforms}), then thresholds that same draw vector at every
    grid point ({!Fault.classify_into}) — common random numbers, so the
    per-trial event indicators are coupled across the curve and curve
    differences have far lower variance than independent runs.  The
    event sees the freshly classified {!Scratch.pattern} exactly as
    {!estimate_event_scratch} would: on a 1-point grid the estimate is
    bit-identical to [estimate_event_scratch] with the same arguments
    (same draws, same thresholds, same engine).

    [monotone_event:true] asserts the event is nondecreasing along the
    grid order within every trial (true e.g. for open-connectivity
    failure on a grid sorted by ascending [eps_open] with [eps_close]
    fixed at 0, where the usable-edge set only shrinks); once a trial's
    indicator turns true, later points are recorded true without
    re-evaluating — a pure short-circuit, identical results by the
    asserted monotonicity.  Default [false].

    No adaptive stopping; deterministic at every [jobs], tracing
    observational, [label] defaults to ["monte_carlo.curve"]. *)

val pp : Format.formatter -> estimate -> unit
