(** Frozen pre-scale-layer traffic engine — a test oracle.

    This is the continuous-time DES traffic engine exactly as it stood
    before the million-switch scale layer landed: one monolithic event
    heap, heap-allocated call records (lists and a hashtable), one
    exponential failure clock per switch, and a full O(n + m)
    union-find sweep for every Lemma-7 catastrophe check.  It shares
    [Ftcsn_des.Traffic]'s public [config] / [stats] / [summary] types,
    and [test_scale.ml] uses it two ways:

    - {b bit identity}: without failures the suite pins [Traffic.run]
      and [Traffic.estimate] against {!run} and {!estimate} —
      structurally equal results across seeds, families, [jobs] and
      tracing — so the allocation-free rewrite provably changed
      nothing observable;
    - {b statistical agreement}: with failures on, this engine runs one
      exponential clock per switch while [Traffic] runs one thinned
      fabric-wide clock, so the runs differ draw for draw; the suite
      pins their agreement (blocking intervals, failure rate, mean time
      to degradation).

    Do not extend or optimise this module — its value is that it does
    not move. *)

val run :
  rng:Ftcsn_prng.Rng.t ->
  config:Ftcsn_des.Traffic.config ->
  Ftcsn_networks.Network.t ->
  Ftcsn_des.Traffic.stats
(** One replication under the pre-PR engine.  Same determinism contract
    as the original [Traffic.run]: all stochastic draws come from [rng]
    in a fixed documented order, so equal seeds give equal stats. *)

val estimate :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  config:Ftcsn_des.Traffic.config ->
  Ftcsn_networks.Network.t ->
  Ftcsn_des.Traffic.summary
(** Multi-replication estimate under the pre-PR engine ([label]
    defaults to ["traffic.estimate"], matching the original).  Trial
    [i] runs on [Rng.substream rng i]; results are bit-identical at
    every [jobs] and with tracing on or off. *)
