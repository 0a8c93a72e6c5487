(** SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).

    Deterministic, trivially splittable, and the standard seeder for
    xoshiro-family states.  Every Monte-Carlo experiment in this repository
    is keyed by a SplitMix64 seed so results are bit-reproducible. *)

type t

val create : int64 -> t
(** Generator seeded with the given 64-bit state. *)

val next : t -> int64
(** Next raw 64-bit output (advances the state). *)

val next_int : t -> int
(** The low 63 bits of the next {!next} output, as an immediate [int]
    (advances the state exactly as {!next} does).  Unlike an [int64]
    result it is never boxed, so a caller in another module draws
    without allocating. *)

val next_bits53 : t -> int
(** The high 53 bits of the next {!next} output, in [\[0, 2^53)]
    (advances the state exactly as {!next} does). *)

val split : t -> t
(** A statistically independent generator derived from (and advancing)
    the parent. *)

val substream : t -> int -> t
(** [substream t i] is the [i]-th (0-indexed) child stream of [t],
    derived without advancing the parent.  Children are mutually
    independent, and [substream t i] equals the result of the
    [(i+1)]-th consecutive {!split} of a copy of [t] — so an indexed
    family of substreams reproduces a sequential split loop exactly,
    which is what makes parallel trial execution bit-deterministic. *)

val advance : t -> int -> unit
(** [advance t k] jumps [t] forward by [k] outputs (equivalently, [k]
    splits) in O(1), as if [next] had been called [k] times. *)

val copy : t -> t
