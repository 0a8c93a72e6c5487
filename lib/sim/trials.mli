(** Deterministic trial-execution engine for Monte-Carlo simulation.

    Every empirical estimate in this repository — the (ε, δ) survival
    probabilities of Theorem 2, the Moore–Shannon hammock curves of
    Proposition 1, Birnbaum criticality, the sampled rearrangeability and
    superconcentrator deciders — is a loop of independent seeded trials.
    This module is the single substrate those loops run on.

    {2 Determinism under parallelism}

    Trial [i] always executes on [Rng.substream root i], where [root] is a
    copy of the caller's stream taken before the run.  A trial's outcome is
    therefore a pure function of the root seed and its index, and results
    are bit-identical whether the index space is swept by one domain or
    fanned out across many ([jobs] only changes wall-clock time, never the
    returned record).  [Rng.substream root i] coincides with the [(i+1)]-th
    consecutive [Rng.split] of the root, so a [jobs:1] run also reproduces
    the historical sequential split-per-trial loops bit-for-bit.  On
    return, the caller's stream is advanced past every executed trial,
    exactly as the sequential loop would have left it.

    Adaptive stopping is evaluated on chunk boundaries in index order, so
    the executed trial count is deterministic too.

    {2 Parallel execution}

    [jobs] > 1 fans chunks of trials out to a persistent, lazily-created
    domain pool (OCaml 5 map-reduce; no dependencies).  Worker domains
    are spawned on first parallel use — never more than the largest
    [jobs - 1] requested so far — parked on a condition variable between
    batches, reused for every subsequent run in the process, and joined
    by an [at_exit] hook.  The pool only decides {e where} a chunk
    executes; chunk boundaries, PRNG substream indexing and consumption
    order are fixed by the scheduler, so every estimate is bit-identical
    to the historical spawn-per-round engine.  Spawns are counted in
    [Ftcsn_obs.Metrics.default] under [trials.pool.spawns]: a healthy
    multi-run process shows the counter frozen at [jobs - 1] while work
    keeps flowing.  Trial functions must be safe to run concurrently:
    they may freely read shared immutable data (the network under test)
    but must keep all mutable state in the per-chunk [scratch] created by
    [init], which is never shared between domains.

    {2 Observability}

    Every entry point accepts an optional [trace] sink
    ([Ftcsn_obs.Trace.sink]).  When present, the engine emits a
    [Run_begin] event, one [Chunk] event per consumed work unit (worker
    domain id, wall-clock cost, and the chunk's trial-index range — which
    is also its RNG substream-id range), a [Stop_check] event for every
    adaptive-stopping evaluation with its Wilson half-width, and a
    [Run_end] event.  Tracing is strictly observational: chunks are timed
    on their executing domain but all events are emitted on the
    scheduling domain in index order, no event touches a PRNG stream, and
    the per-trial hot path is untouched (the clock is read at chunk
    granularity only).  Estimates are therefore bit-identical with
    tracing on or off, at every [jobs] — the test suite pins this.
    [label] names the run in its [Run_begin] event; defaults identify the
    entry point ([trials.run], [trials.map_reduce], [trials.search]). *)

type estimate = {
  successes : int;  (** trials for which the Bernoulli event held *)
  trials : int;  (** trials actually executed (≤ the requested cap) *)
  mean : float;  (** point estimate [successes / trials] *)
  ci_low : float;  (** Wilson 95% interval, lower end *)
  ci_high : float;  (** Wilson 95% interval, upper end *)
}

val of_counts : successes:int -> trials:int -> estimate
(** Estimate with a Wilson 95% interval. *)

val half_width : estimate -> float
(** Half the Wilson interval width — the quantity [target_ci] bounds. *)

val pp : Format.formatter -> estimate -> unit
(** Render as ["mean [lo, hi] (successes/trials)"]. *)

type progress = {
  completed : int;  (** trials finished so far *)
  cap : int;  (** the trial cap for this run *)
  successes : int;  (** successes among the completed trials *)
  elapsed : float;  (** seconds since the run started *)
  rate : float;  (** throughput in trials per second *)
  jobs : int;  (** worker domains in use *)
}

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible [~jobs] for "use
    the whole machine". *)

val run_scratch :
  ?jobs:int ->
  ?chunk:int ->
  ?target_ci:float ->
  ?min_trials:int ->
  ?progress:(progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  init:(unit -> 'scratch) ->
  ('scratch -> Ftcsn_prng.Rng.t -> bool) ->
  estimate
(** [run_scratch ~trials ~rng ~init f] estimates P[f = true] from up to
    [trials] independent executions of [f], each on its own substream of
    [rng].

    - [jobs] (default 1): worker domains.
    - [chunk] (default 256): trials per work unit — small enough that
      adaptive stopping is responsive, large enough that domain dispatch
      cost is amortised.
    - [target_ci]: adaptive stopping — stop at the first chunk boundary
      (after [min_trials], default 1000) where the Wilson 95% half-width
      drops to [target_ci] or below; [trials] remains a hard cap.
    - [progress]: called on the scheduling domain after every consumed
      chunk with cumulative counts and throughput.
    - [trace]/[label]: structured JSONL events, see {i Observability}
      above.
    - [init]: per-worker scratch state, called once per chunk on the
      executing domain; its result is threaded through that chunk's
      trials — the hook for zero-allocation inner loops (reusable
      fault-pattern buffers, bitsets, …).  Trials must not retain the
      scratch beyond their own call. *)

val sweep :
  ?jobs:int ->
  ?chunk:int ->
  ?progress:(progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  points:int ->
  init:(unit -> 'scratch) ->
  ('scratch -> Ftcsn_prng.Rng.t -> Bytes.t -> unit) ->
  estimate array
(** Coupled multi-point estimation over one fan-out of trials — the
    engine under the common-random-numbers ε-curve sweeps.  Each trial
    receives its substream once and an [outcomes] byte buffer of length
    [points], pre-zeroed; it sets byte [k] non-zero iff the Bernoulli
    event holds at grid point [k].  Because all [points] outcomes of a
    trial derive from one substream, the returned [points] estimates are
    positively correlated (curve differences have far lower variance
    than independent runs) and cost one sampling pass instead of
    [points].  Returns one {!estimate} per grid point, all over the same
    [trials] executions.

    Determinism is inherited from the scheduler: results are
    bit-identical at every [jobs] and with tracing on or off, and a
    1-point sweep whose trial sets byte 0 to the event indicator matches
    {!run_scratch} of the same event count-for-count.  No adaptive
    stopping (a single half-width target is ill-defined across a curve);
    [progress.successes] reports grid point 0.  Traced [Chunk] events
    carry no success counts. *)

val map_reduce :
  ?jobs:int ->
  ?chunk:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  init:(unit -> 'scratch) ->
  create_acc:(unit -> 'acc) ->
  trial:('scratch -> 'acc -> Ftcsn_prng.Rng.t -> unit) ->
  combine:('acc -> 'acc -> unit) ->
  unit ->
  'acc
(** General deterministic fan-out for non-Bernoulli statistics (paired
    Birnbaum counters, time-to-degradation sums, …).  Each chunk folds
    its trials into a fresh accumulator from [create_acc]; chunk
    accumulators are [combine]d into the first accumulator (the return
    value) strictly in index order, so any combine — even a non-
    commutative one — yields the same result at every [jobs].  Traced
    [Chunk] events carry no success counts (the accumulator is opaque
    to the engine). *)

val search :
  ?jobs:int ->
  ?chunk:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  init:(unit -> 'scratch) ->
  ('scratch -> Ftcsn_prng.Rng.t -> 'witness option) ->
  'witness option
(** Witness hunt with early exit: runs up to [trials] probes and returns
    the witness of the {e lowest-indexed} probe that produces one (so the
    result is independent of [jobs]), or [None].  Rounds dispatched after
    a hit are skipped.  As in {!run_scratch}, [init] builds one scratch
    per chunk, shared by that chunk's probes. *)
