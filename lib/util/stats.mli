(** Streaming summary statistics (Welford) and simple aggregates. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0.0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0.0 with fewer than two samples. *)

val min_value : t -> float
(** [infinity] when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

val sum : t -> float

val of_array : float array -> t
