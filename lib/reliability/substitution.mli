(** Edge substitution: replace every switch of a network by a copy of a
    two-terminal 1-network.

    This is the paper's §3 transfer argument: substituting an
    (ε₂, ε₁)-1-network for each edge of an (ε₁, δ)-network yields an
    (ε₂, δ)-network whose size and depth grow by only constant factors.
    The module makes that argument executable. *)

type t = {
  graph : Ftcsn_graph.Digraph.t;
  vertex_image : int array;
      (** original vertex → corresponding vertex of the substituted graph *)
  gadget : Sp_network.built;
  original_edges : int;
}

val substitute : Ftcsn_graph.Digraph.t -> gadget:Sp_network.built -> t
(** Every original edge (u, v) is replaced by a fresh copy of [gadget],
    its input merged with [u] and its output with [v].  Edge ids of the
    result enumerate gadget copies in original-edge order: composite edge
    [k·g + j] is edge [j] of the gadget copy standing in for original
    edge [k] (g = gadget size). *)

val logical_rates :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  eps_open:float ->
  eps_close:float ->
  t ->
  Ftcsn_sim.Trials.estimate * Ftcsn_sim.Trials.estimate
(** [(open_rate, short_rate)]: Monte-Carlo estimates of the probability
    that one gadget copy under physical failure rates (ε₁, ε₂) presents a
    logical open (cannot conduct) resp. logical short (terminals
    contract) — a short-and-open copy counts as short, matching
    {!logical_pattern}.  Runs on the {!Ftcsn_sim.Trials} engine with a
    reused per-worker slice buffer; compare against
    {!Sp_network.open_prob} / {!Sp_network.short_prob} to validate the §3
    transfer argument. *)

val logical_pattern : t -> Fault.pattern -> Fault.pattern
(** The §3 transfer argument, executable: collapse a fault pattern on the
    substituted graph to a {e logical} pattern on the original graph.  A
    gadget copy that shorts (its terminals contract through closed
    failures) becomes a logical closed failure; one that cannot conduct at
    all becomes a logical open failure; otherwise the logical switch is
    normal.  Substituting an (ε₂, ε₁)-gadget therefore turns an
    (ε₁, δ)-network into an (ε₂, δ)-network, and this function is how
    experiments check that claim. *)
