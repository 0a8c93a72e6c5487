(** Log-scaled histograms for latency-like quantities.

    Values are non-negative integers (typically nanoseconds).  The
    bucketing scheme is HDR-style base-2 with 16 linear sub-buckets per
    octave:

    - values [0..15] each get an exact singleton bucket;
    - every octave [\[2{^k}, 2{^k+1})] for [k >= 4] is split into 16
      equal sub-buckets of width [2{^k-4}].

    A recorded value is therefore attributed to a bucket whose width is
    at most 1/16 of its lower bound — a guaranteed relative error of at
    most 6.25% — while the whole 62-bit range fits in 960 buckets
    (about 8 KiB), so a histogram is cheap enough to keep per worker.

    Histograms are deliberately {e not} thread-safe: keep one per
    domain. *)

type t

val create : unit -> t
(** An empty histogram. *)

val record : t -> int -> unit
(** Record one observation; negative values are clamped to 0. *)

val count : t -> int
(** Number of recorded observations. *)

val sum : t -> int
(** Sum of recorded observations (exact, not bucket-quantized). *)

val min_value : t -> int
(** Smallest recorded observation; 0 if empty. *)

val max_value : t -> int
(** Largest recorded observation; 0 if empty. *)

val mean : t -> float
(** [sum / count]; 0 if empty. *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0, 1]: the upper bound of the first
    bucket whose cumulative count reaches [q * count t] (so the true
    q-quantile is at most the returned value, and at least 16/17 of
    it).  0 on an empty histogram. *)

val iter : t -> (lower:int -> upper:int -> count:int -> unit) -> unit
(** Visit every non-empty bucket in increasing value order; [lower]
    and [upper] are the bucket's inclusive value range. *)

val bucket_index : int -> int
(** The bucket a value falls into — exposed so tests can pin the
    bucketing scheme. *)

val bucket_bounds : int -> int * int
(** Inclusive [(lower, upper)] range of a bucket index.
    [bucket_bounds (bucket_index v)] brackets [v]. *)

val to_json : t -> Json.t
(** Summary object: [count], [sum], [min], [max], [mean], [p50], [p90],
    [p99], and a [buckets] array of [\[lower, count\]] pairs for the
    non-empty buckets. *)
