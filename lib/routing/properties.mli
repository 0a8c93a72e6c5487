(** Deciders for the three network classes of the paper (§2).

    A directed graph with n inputs and n outputs is
    - an {e n-superconcentrator} when every r inputs and r outputs are
      joined by r vertex-disjoint paths,
    - a {e rearrangeable n-network} when every one-to-one correspondence
      of inputs to outputs is realised by vertex-disjoint paths, and
    - a {e (strictly) nonblocking n-network} when, whatever vertex-disjoint
      paths are already established, every idle input/output pair can be
      joined by a path vertex-disjoint from them.

    Superconcentration is decided per request by max-flow (Menger), on
    one {!Flow_route.ws} re-armed for every (S, T) pair;
    rearrangeability by exact backtracking (exhaustive over permutations
    for small n, sampled for large); strict nonblocking by an exhaustive
    game over reachable busy-sets for tiny networks (online stress on
    larger ones runs as call traffic in [Ftcsn_des.Traffic]).  Every
    [`Violated] answer carries a concrete witness; [`Holds] from a
    sampled checker is statistical evidence, not proof. *)

type sc_violation = {
  r : int;
  input_indices : int array;
  output_indices : int array;
  achieved : int;  (** max vertex-disjoint paths found, < r *)
}

val superconcentrator_exhaustive :
  ?max_work:int -> Ftcsn_networks.Network.t -> [ `Holds | `Violated of sc_violation | `Too_large ]
(** Check every r and every pair of r-subsets; [max_work] (default 2·10⁵)
    bounds the number of flow computations before giving up with
    [`Too_large]. *)

val superconcentrator_sampled :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  Ftcsn_networks.Network.t ->
  sc_violation option
(** Random (r, S, T) probes; [None] = no violation found.  Probes run on
    the {!Ftcsn_sim.Trials} engine (one substream per probe) and the
    lowest-indexed violation wins, so the answer is identical at every
    [jobs]. *)

val rearrangeable_exhaustive :
  ?budget:int -> Ftcsn_networks.Network.t ->
  [ `Holds | `Violated of Ftcsn_util.Perm.t | `Budget_exceeded ]
(** All n! permutations through the backtracking router; use for n ≤ 5. *)

val rearrangeable_sampled :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  ?budget:int ->
  Ftcsn_networks.Network.t ->
  Ftcsn_util.Perm.t option
(** Random permutations; [Some pi] is a permutation the exact router could
    not realise within budget.  Deterministically parallel like
    {!superconcentrator_sampled}. *)

type nb_violation = {
  established : int list list;  (** the blocking set of established paths *)
  input : int;  (** input vertex id of the unroutable request *)
  output : int;
}

val nonblocking_exhaustive :
  ?max_states:int -> Ftcsn_networks.Network.t ->
  [ `Holds | `Violated of nb_violation | `Budget_exceeded ]
(** Exhaustive game over all reachable sets of established paths (memoised
    on busy sets).  Exponential: use for tiny networks only.
    [max_states] (default 200_000) bounds visited states. *)

val is_banyan : Ftcsn_networks.Network.t -> bool
(** Every input/output pair joined by exactly one path (e.g. butterfly). *)
