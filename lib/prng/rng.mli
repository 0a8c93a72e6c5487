(** Deterministic random streams for simulations.

    A thin, explicit-state facade over {!Splitmix64} (the only generator we
    need: all draws here are for Monte-Carlo estimation and shuffling, not
    cryptography).  Every consumer takes a [t] explicitly — there is no
    global state — so fault-injection experiments are reproducible from
    their seeds and subexperiments can be given independent substreams via
    {!split}. *)

type t

val create : seed:int -> t

val split : t -> t
(** Independent substream; the parent advances. *)

val substream : t -> int -> t
(** [substream t i] is the [i]-th (0-indexed) independent substream of
    [t], derived {e without} advancing the parent.  [substream t i] is
    bit-identical to the [(i+1)]-th consecutive {!split} of a copy of
    [t]: an indexed family of substreams reproduces a sequential split
    loop exactly, so trial [i] of a simulation draws the same stream
    whether trials run sequentially or fan out across domains. *)

val advance : t -> int -> unit
(** [advance t k] jumps the stream forward by [k] draws (equivalently
    [k] splits) in O(1) — used to leave a parent stream in the same
    state a sequential split-per-trial loop would have left it. *)

val copy : t -> t
(** Snapshot of the stream state.  Draws from the copy are bit-identical
    to the draws the original would have produced from this point, and
    leave the original untouched — the common-random-numbers curve path
    relies on this: after a trial's per-edge draws, each ε grid point
    probes on its own [copy] of the substream, so every point sees the
    exact stream an independent single-ε run would have seen. *)

val int64 : t -> int64
(** Uniform raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound), [bound > 0]; rejection-sampled
    so it is exactly uniform. *)

val float : t -> float
(** Uniform in [0, 1) with 53-bit resolution. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val binomial : t -> n:int -> p:float -> int
(** Number of successes in [n] Bernoulli(p) trials (direct simulation for
    small n, inversion by waiting times for small p). *)

val permutation : t -> int -> Ftcsn_util.Perm.t
(** Uniform permutation of [0, n). *)

val sample_without_replacement : t -> n:int -> k:int -> int array
(** Uniform k-subset of [0, n), sorted ascending. *)
