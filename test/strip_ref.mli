(** Subgraph-rebuilding fault strip — a test oracle.

    The survivor semantics (paper, §2), the §4 strip and the probed
    (ε, δ) trial exactly as the library computed them before its
    workspace path: per fault pattern, a quotient graph of the
    closed-failure contraction, a normal-edge subgraph, and a fresh
    router or flow network per probe.  The qcheck suites pin
    [Ftcsn_reliability.Survivor]'s [_into] operations,
    [Ftcsn.Fault_strip.strip_into] and [Ftcsn.Pipeline.trial_ws] against
    it.  Nothing here touches [Ftcsn_obs.Metrics.default].

    Do not extend or optimise this module — its value is that it does
    not move. *)

(** {2 Survivor quotient} *)

type survivor = {
  graph : Ftcsn_graph.Digraph.t;
      (** quotient graph containing only surviving normal edges *)
  vertex_image : int array;  (** original vertex → quotient vertex *)
  edge_image : int array;
      (** original edge id → surviving edge id, [-1] if the edge failed or
          became a self-loop under contraction *)
  contracted_classes : int;  (** number of quotient vertices *)
}

val compress_labels : Ftcsn_util.Union_find.t -> int array * int
(** [(label, k)] where [label.(i)] is a dense id in [0, k) shared exactly
    by equivalent elements — the class labels the quotient is built
    from. *)

val apply : Ftcsn_graph.Digraph.t -> Ftcsn_reliability.Fault.pattern -> survivor

val terminals_distinct : survivor -> int list -> bool
(** True iff no two of the given original vertices were contracted
    together — the event bounded by Lemma 7. *)

val merged_pairs : survivor -> int list -> (int * int) list
(** The pairs of given terminals that did contract together. *)

val shorted_by_closure :
  Ftcsn_graph.Digraph.t -> Ftcsn_reliability.Fault.pattern -> a:int -> b:int -> bool
(** [a] and [b] are connected by closed-failure edges, ignoring
    direction. *)

val connected_ignoring_opens :
  Ftcsn_graph.Digraph.t -> Ftcsn_reliability.Fault.pattern -> a:int -> b:int -> bool
(** A directed path of non-open edges leads from [a] to [b]. *)

(** {2 Strip} *)

type strip = {
  allowed : int -> bool;  (** internal vertices that may carry traffic *)
  faulty : Ftcsn_util.Bitset.t;
  stripped : Ftcsn_util.Bitset.t;  (** faulty plus radius-neighbourhood *)
  shorted_terminals : (int * int) list;
      (** terminal pairs contracted by closed failures (Lemma 7 event) *)
  normal_graph : Ftcsn_graph.Digraph.t;
      (** the network graph restricted to normal-state switches (same
          vertex ids, edge ids renumbered) *)
}

val strip :
  ?radius:int -> Ftcsn_networks.Network.t -> Ftcsn_reliability.Fault.pattern -> strip

val healthy : strip -> bool

val stripped_fraction : Ftcsn_networks.Network.t -> strip -> float

val surviving_network : Ftcsn_networks.Network.t -> strip -> Ftcsn_networks.Network.t
(** The network with only normal-state switches (terminals unchanged). *)

val isolated_inputs : Ftcsn_networks.Network.t -> strip -> int list
(** Input indices with no path to any output through allowed vertices
    and normal switches (Lemma 3's disconnection event). *)

(** {2 Probe trial} *)

val trial :
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  ?strip_radius:int ->
  ?probe:Ftcsn.Pipeline.probe ->
  Ftcsn_networks.Network.t ->
  Ftcsn.Pipeline.verdict
(** One fault sample at ε₁ = ε₂ = [eps], stripped, then probed on
    {!surviving_network} with fresh routers; same PRNG draw order as
    [Ftcsn.Pipeline.trial_ws]. *)
