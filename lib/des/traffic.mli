(** Continuous-time circuit-switching traffic: the operational meaning of
    the paper's claims, as a discrete-event simulation.

    A nonblocking network "keeps serving an online sequence of call
    requests" (§2); an (ε, δ)-network keeps doing so while switches
    fail.  This engine makes those statements quantitative: calls arrive
    as a Poisson process (offered load in Erlangs), hold for unit-mean
    exponential or Pareto times, and are routed through the network by
    the maskable {!Ftcsn_routing.Greedy} router ([~allowed]/[~edge_ok])
    — optionally falling back to a {!Ftcsn_routing.Backtrack}
    rearrangement when the greedy probe blocks.  Meanwhile each switch
    fails at rate [1/mtbf] and is repaired after an exponential time of
    mean [mttr]; a failure is open or closed with equal probability
    (the paper's ε₁/ε₂ split), severs the call using that switch (the
    engine immediately attempts a greedy reroute), and a closed failure
    that contracts two terminals — the Lemma 7 catastrophe — ends the
    run.

    The switches, calls, the failure clock, the event heap and its loop
    are a {!Fabric}, the same core [Ftcsn_serve.Engine] drives: a run
    fires the heap through {!Fabric.fire} with its one trial stream,
    and this module adds only the handlers it treats differently — the
    arrival process, the statistics, saturation and rearrangement, and
    what a failure severs — and reads [events], [failures] and [repairs]
    from the fabric's counters.  Failures come from the fabric's one
    thinned clock: a tick at rate [m/mtbf] on a uniformly chosen switch,
    discarded when that switch is already down.  A discarded tick counts
    in neither [events] nor [failures].

    {2 One fabric per domain}

    Nothing a fabric builds — the router's staging, [Dyn_conn], the
    per-switch and per-vertex arrays — depends on the replication, and
    on ft:1024 building it costs about a quarter of a short run.  So
    each domain keeps the fabric of its last {!run} and the next run
    reuses it through {!Fabric.reset}, which undoes only what the last
    run touched and leaves a fabric no run can tell from a fresh one.
    {!estimate}, and every loop over {!run}, therefore builds one fabric
    per domain, not one per replication.

    {2 Determinism contract}

    Events execute in [(time, push-sequence)] order ({!Heap}), and every
    PRNG draw happens while handling some event, in a fixed documented
    order (arrival: endpoint picks, holding time, next interarrival;
    tick: switch pick, then for a normal switch the open/closed coin and
    repair time, then the next tick's delay; see {!Fabric}).  A
    replication's trace is therefore a pure function of its substream,
    and {!estimate} fan-outs on {!Ftcsn_sim.Trials} are bit-identical
    at every [jobs] and with tracing on or off.

    {2 Steady-state statistics}

    Blocking probability is estimated on the measured window (after a
    warm-up prefix of offered calls) with batch-means Student-t
    intervals ({!Batch_means}); the engine also integrates the number of
    concurrent calls over the window so estimates can be cross-checked
    against Little's law (time-average occupancy [L] versus carried
    load [λ·W̄]).

    {2 The frozen reference engine}

    Without failures ([mtbf = infinity]) the engine is bit-identical to
    the pre-scale-layer implementation, event for event and draw for
    draw; [test/traffic_ref.ml] keeps that engine frozen as a test
    oracle and the test suite pins the equivalence.  With failures on,
    the reference arms one clock per switch and this engine one
    fabric-wide clock: the same random process sampled differently, so
    the runs differ draw for draw, and the test suite pins their
    statistical agreement instead (blocking intervals, failure rate,
    time to degradation). *)

type stop =
  | Horizon of float
      (** run until simulated time [t] (no blocking interval) *)
  | Calls of { warmup : int; measured : int }
      (** discard the first [warmup] offered calls, then measure the
          next [measured] and stop; requires an arrival process
          ([load > 0]) *)

type policy =
  | Route_greedy  (** strictly-nonblocking operation: greedy BFS only *)
  | Route_rearrange of int
      (** rearrangeably-nonblocking operation: when the greedy probe
          blocks, re-lay {e all} live calls plus the new request with
          {!Ftcsn_routing.Backtrack.route_all} under the given search
          budget, migrating every call on success *)
  | Route_staged
      (** greedy operation on {!Ftcsn_routing.Staged_route}'s dive on
          strictly staged families — a backward BFS to the first wide
          level, then a depth-first search from the input that stops at
          the first vertex it reached, with the backward pass finishing
          past a visit cap — and plain BFS elsewhere.  Accept/block decisions
          (hence blocking estimates) match [Route_greedy]; the chosen
          equal-length paths may differ, so fault-time sever selection —
          and with it individual sample paths — is not bit-identical to
          the greedy run *)
  | Route_loop
      (** greedy operation on {!Ftcsn_routing.Loop_route}'s Beneš
          block-tree descent, falling back to [Route_staged]'s dive
          off the Beneš family or inside heavily faulted blocks; same
          accept/block equivalence as [Route_staged] *)

type config = private {
  load : float;  (** offered Erlangs (= arrival rate; holding mean is 1) *)
  holding : Dist.holding;
  mtbf : float;  (** per-switch mean time between failures; [infinity] = none *)
  mttr : float;  (** per-switch mean time to repair; [infinity] = permanent *)
  stop : stop;
  batches : int;  (** batch-means batches over the measured window *)
  policy : policy;
  saturate : bool;
      (** pre-place identity calls (input i → output i) at t = 0 that
          never hang up — the saturating workload of the
          time-to-degradation experiments *)
  stop_on_degradation : bool;
      (** halt at the first service failure: a request between idle
          terminals that could not be routed, a severed call that could
          not be rerouted, or a catastrophe (system-full losses are a
          capacity limit, not degradation) *)
}

val config :
  ?load:float ->
  ?holding:Dist.holding ->
  ?mtbf:float ->
  ?mttr:float ->
  ?stop:stop ->
  ?batches:int ->
  ?policy:policy ->
  ?saturate:bool ->
  ?stop_on_degradation:bool ->
  ?shards:int ->
  ?shard_jobs:int ->
  unit ->
  config
(** Validated constructor (defaults: load 1.0 Erlang, exponential
    holding, no failures, mttr 10, [Calls {warmup = 500; measured =
    5000}], 10 batches, greedy policy).  [shards] and [shard_jobs] are
    labels left over from the removed sharded mode: each accepts only
    [1] and is stored nowhere; they go with the next benchmark change,
    whose harness still passes them.
    @raise Invalid_argument on out-of-range values, e.g. [load < 0],
    [mtbf <= 0], [batches < 2], a [Calls] stop with [load = 0], a
    non-finite horizon, or [shards] or [shard_jobs] other than [1]. *)

val router_name : config -> Ftcsn_networks.Network.t -> string
(** Which deterministic router a {!run} with this config on this network
    would engage after fallback resolution: ["bfs"], ["staged"] or
    ["loop"] — e.g. [Route_loop] resolves to ["staged"] on a non-Beneš
    staged family.  Builds (and discards) a router to ask it, so this
    costs one engine construction — fine for reporting, not for a hot
    loop.  It leaves the domain's fabric alone: a caller that asks about
    each of several networks as it builds them keeps none of them alive
    through it. *)

type stats = {
  sim_time : float;  (** simulated time at the end of the run *)
  events : int;  (** events executed *)
  offered : int;  (** arrivals (excluding saturation pre-placement) *)
  served : int;  (** calls successfully placed on arrival *)
  blocked : int;
      (** arrivals lost for any reason — no idle terminals left, or no
          fault-free idle path between the chosen pair.  This is the
          loss-system count Erlang-B predicts. *)
  blocked_full : int;
      (** the subset of [blocked] lost because every input (or output)
          was already in a call — a capacity limit, not a routing
          failure.  [blocked - blocked_full] is the paper's nonblocking
          violation count: requests between {e idle} terminals that
          could not be served. *)
  dropped : int;  (** live calls severed by a switch failure *)
  rerouted : int;  (** severed calls immediately re-placed *)
  rearranged : int;  (** blocked arrivals saved by a backtrack re-lay *)
  failures : int;
  repairs : int;
  max_concurrent : int;
  occupancy : float;
      (** time-average concurrent calls over the measured window
          (whole run for a {!Horizon} stop) — Little's law [L] *)
  carried : float;
      (** carried load predicted by Little's law: the summed holding
          times of calls placed in the window divided by its length
          ([λ·W̄]); compare with [occupancy] *)
  measured_offered : int;
      (** offered calls inside the measured window (all of them for a
          {!Horizon} stop) *)
  blocking : float;  (** blocked / offered over the measured window *)
  batch_blocking : float array;
      (** per-batch blocking means ([[||]] for a {!Horizon} stop) *)
  degraded_at : float option;
      (** first service failure, when [stop_on_degradation] *)
  catastrophe_at : float option;  (** Lemma 7 terminal contraction *)
}

val run : rng:Ftcsn_prng.Rng.t -> config:config -> Ftcsn_networks.Network.t -> stats
(** One replication.  All draws come from [rng] in event order.

    The run takes its fabric from a [Domain.DLS] slot holding the last
    one the calling domain ran on, and resets it, while the network is
    physically the same ([==]) and the policy asks for the same router
    engine; otherwise it builds a fresh one, which replaces it.  The
    fabric leaves the slot for the run and goes back on return, so a run
    that raises leaves no used fabric behind, and a run started inside
    another (from a handler, say) finds the slot empty and builds its
    own: [run] is not re-entrant on one fabric, and never needs to be.
    Results are the same either way, bit for bit.  [Ftcsn_serve.Engine]
    builds its own fabric and keeps it for the engine's lifetime. *)

type summary = {
  replications : int;
  blocking : Batch_means.summary;
      (** batch means pooled across replications (replication-level
          means when no batches were recorded) *)
  occupancy : float;  (** mean over replications *)
  carried : float;
  t_offered : int;  (** totals over all replications *)
  t_served : int;
  t_blocked : int;
  t_blocked_full : int;
  t_dropped : int;
  t_rerouted : int;
  t_failures : int;
  t_repairs : int;
  t_events : int;
  t_sim_time : float;
  catastrophes : int;  (** replications that ended in a catastrophe *)
}

val estimate :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?label:string ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  config:config ->
  Ftcsn_networks.Network.t ->
  summary
(** [trials] independent replications on the {!Ftcsn_sim.Trials} engine
    (one substream each, default label ["traffic.estimate"]) — the
    result is bit-identical at every [jobs] and with tracing on or off.
    Aggregate event counts accumulate in [Ftcsn_obs.Metrics.default]
    under [traffic.*]. *)
