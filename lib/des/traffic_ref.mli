(** Frozen pre-scale-layer traffic engine — oracle and baseline.

    This is the continuous-time DES traffic engine exactly as it stood
    before the million-switch scale layer landed: one monolithic event
    heap, heap-allocated call records (lists and a hashtable), and a
    full O(n + m) union-find sweep for every Lemma-7 catastrophe check.
    It shares {!Traffic}'s public [config] / [stats] / [summary] types
    (the [shards] / [shard_jobs] fields of [config] are ignored — this
    engine is always monolithic) and serves two purposes:

    - {b oracle}: without failures the test suite pins
      [Traffic.estimate ~config:{... shards = 1}] against {!estimate} —
      structurally equal summaries across seeds, [jobs] and tracing —
      so the allocation-free rewrite provably changed nothing
      observable in single-shard mode.  With failures on, this engine
      runs one exponential clock per switch while {!Traffic} runs one
      thinned fabric-wide clock; the tests pin their statistical
      agreement (blocking intervals, failure rate, mean time to
      degradation);
    - {b same-commit bench baseline}: the [traffic-benes-1M-baseline]
      row in [BENCH_timings.json] runs this engine on the same network
      and commit as the incremental engine, so the reported speedup is
      an apples-to-apples events/s ratio, not a cross-version guess.

    Do not extend or optimise this module — its value is that it does
    not move. *)

val run :
  rng:Ftcsn_prng.Rng.t -> config:Traffic.config -> Ftcsn_networks.Network.t
  -> Traffic.stats
(** One replication under the pre-PR engine.  Same determinism contract
    as the original [Traffic.run]: all stochastic draws come from [rng]
    in a fixed documented order, so equal seeds give equal stats. *)

val estimate :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  config:Traffic.config ->
  Ftcsn_networks.Network.t ->
  Traffic.summary
(** Multi-replication estimate under the pre-PR engine ([label]
    defaults to ["traffic.estimate"], matching the original).  Trial
    [i] runs on [Rng.substream rng i]; results are bit-identical at
    every [jobs] and with tracing on or off. *)
