(** Majority-access analysis (paper, Lemmas 3 and 6).

    Given established vertex-disjoint paths (busy vertices) and a set of
    faulty vertices, an idle vertex has {e access} to another if a path of
    idle non-faulty vertices joins them.  A network is a
    {e majority-access network} when every idle input has access to a
    strict majority of the outputs; if both 𝒩 and its mirror are
    majority-access and no terminals are shorted, 𝒩 contains a nonblocking
    network (§6).  This module samples busy configurations and checks
    access across the network's waist. *)

val sampled_busy_majority :
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  ?load:float ->
  allowed:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?rev:Ftcsn_graph.Digraph.t ->
  Ftcsn_networks.Network.t ->
  bool
(** Lemma 6's property is universally quantified over established path
    sets; this probe samples them: per trial, greedily route a random
    partial permutation covering [load] (default 0.5) of the terminals
    through allowed vertices, then require every idle input to keep
    access to a strict majority of the waist (the central stage of the
    longest-path staging from the inputs) and every idle output to keep
    backward access to a strict majority — the §6 certificate for
    nonblocking containment: an idle input and an idle output that each
    reach a strict majority of the waist share a waist vertex, which
    yields the connecting path.  [false] is a definite
    counterexample configuration; [true] is statistical evidence.
    [edge_ok] masks failed switches without rebuilding the graph, and
    [rev] supplies a precomputed {!Ftcsn_graph.Digraph.reverse} of the
    network graph (edge ids preserved, so the same mask applies). *)
