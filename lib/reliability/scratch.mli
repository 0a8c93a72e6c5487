(** Per-domain trial workspace: every array a stochastic trial needs,
    allocated once and reused.

    The Monte-Carlo inner loops (fault sampling, survivor contraction,
    reachability probes) are pure array computations over a fixed graph;
    the only reason they ever touched the allocator was that each trial
    built its scratch state afresh.  A [Scratch.t] hoists all of it — a
    fault pattern, a resettable union-find, BFS queue/distance/parent
    arrays and a generation-stamped marking array — into one bundle that
    {!Ftcsn_sim.Trials.run_scratch} creates once per worker domain via its
    [~init] hook.  Workspaces are single-domain state: never share one
    between domains.

    Creations are counted in [Ftcsn_obs.Metrics.default] under
    [scratch.create]; a healthy sweep shows this counter at ~[jobs] while
    the [survivor.*] operation counters grow with the trial count.

    The record is exposed so that the scratch-path operations in
    {!Survivor}, [Ftcsn.Fault_strip] and friends can reach the arrays;
    treat the fields as owned by those operations.  Reset discipline:
    every operation that uses a field re-initialises exactly the state it
    reads ([Union_find.reset] before unions, a full [dist] fill before
    BFS, a {!next_generation} bump instead of clearing [mark]), so no
    stale state survives from one trial to the next. *)

type t = {
  graph : Ftcsn_graph.Digraph.t;  (** the graph all trials run over *)
  pattern : Fault.pattern;
      (** per-trial fault pattern buffer, length [edge_count graph] *)
  uniforms : float array;
      (** per-trial CRN draw buffer, length [edge_count graph]: one
          uniform per edge ({!Fault.sample_uniforms_into}), thresholded
          into [pattern] at each ε-grid point by
          {!Fault.classify_into} *)
  faulty : Ftcsn_util.Bitset.t;
      (** faulty-vertex buffer, capacity [vertex_count graph] (refill
          with {!Fault.faulty_vertices_into}) *)
  suf : Ftcsn_util.Union_find.Stamped.t;
      (** contraction classes; generation-stamped, so the per-use reset
          is O(1) instead of O(n) *)
  queue : int array;  (** BFS ring buffer, length [vertex_count graph] *)
  dist : int array;  (** BFS distances, length [vertex_count graph] *)
  parent : int array;
      (** BFS parents for path extraction, length [vertex_count graph] *)
  mark : int array;
      (** generation stamps: [mark.(v) = generation] means marked *)
  mark_value : int array;  (** payload accompanying a mark *)
  mutable generation : int;  (** current marking generation *)
}

val create : Ftcsn_graph.Digraph.t -> t
(** Fresh workspace for a graph; the only allocation on the scratch
    path.  Counted under [scratch.create] in the default metrics
    registry. *)

val graph : t -> Ftcsn_graph.Digraph.t

val pattern : t -> Fault.pattern
(** The workspace's own fault-pattern buffer (refill it with
    {!Fault.sample_into}). *)

val uniforms : t -> float array
(** The workspace's own CRN draw buffer (refill it with
    {!Fault.sample_uniforms_into}). *)

val faulty : t -> Ftcsn_util.Bitset.t
(** The workspace's own faulty-vertex bitset (refill it with
    {!Fault.faulty_vertices_into}). *)

val next_generation : t -> int
(** Bump and return the marking generation — an O(1) clear of [mark]. *)
