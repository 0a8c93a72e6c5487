(** Seed derivation: every stream [ftnet] (and {!Tournament}) draws from
    derives from the user's [--seed] by a fixed offset, documented here
    in one place.  Network construction uses the seed itself (offset 0)
    in every subcommand, so [--net ft:8 --seed 1] denotes the same
    network everywhere; each subcommand's own randomness (fault
    sampling, probe workloads, ...) lives at its own offset so no two
    subcommands share a stream.

    {v
    offset  stream
      0     network construction (every subcommand)
      1     faults sampling
      2     route request workloads
      3     check probe workloads
      4     survive trials, shared by curve
      5     degrade hazard process
      6     critical sampling
      7     traffic replications
      8     rare pilot + estimator
      9     serve requests and failure clock
     10     build diameter sampling
    v} *)

val network : int -> Ftcsn_prng.Rng.t
val faults : int -> Ftcsn_prng.Rng.t
val route : int -> Ftcsn_prng.Rng.t
val check : int -> Ftcsn_prng.Rng.t
val survive : int -> Ftcsn_prng.Rng.t
val degrade : int -> Ftcsn_prng.Rng.t
val critical : int -> Ftcsn_prng.Rng.t
val traffic : int -> Ftcsn_prng.Rng.t
val rare : int -> Ftcsn_prng.Rng.t
val serve : int -> Ftcsn_prng.Rng.t

val curve : int -> Ftcsn_prng.Rng.t
(** Survive's stream: a curve point at ε reproduces [survive --eps ε]
    with the same seed bit for bit. *)

val build : int -> Ftcsn_prng.Rng.t
