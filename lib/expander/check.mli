(** Sampled checks of the (c, c′)-expansion property.

    A bipartite graph is (c, c′, t)-expanding (paper, §6) when every set of
    c inlets has at least c′ outlet neighbours.  Checking every c-set costs
    C(inlets, c) neighbourhood evaluations, so the experiments sample
    them; a violating set found this way is a definite counterexample. *)

val min_neighbourhood_sampled :
  Bipartite.t -> c:int -> samples:int -> rng:Ftcsn_prng.Rng.t -> int
(** Minimum |Γ(S)| over random c-subsets. *)
