(** Subset enumeration and counting helpers.

    Superconcentrator verification quantifies over all r-subsets of inputs
    and outputs (paper, §2); small instances are checked exhaustively with
    these iterators, large ones by sampling. *)

val binomial : int -> int -> float
(** [binomial n k] = C(n, k) as a float (exact for small arguments, may be
    [infinity] for very large ones). *)

val log_binomial : int -> int -> float
(** Natural log of C(n, k), computed stably via [log_factorial]. *)

val iter_subsets : n:int -> k:int -> (int array -> unit) -> unit
(** Enumerate all k-subsets of [0, n) in lexicographic order.  The callback
    receives a scratch array (sorted ascending) it must not retain. *)

val choose_indices : rand_int:(int -> int) -> n:int -> k:int -> int array
(** Uniform k-subset of [0, n), sorted ascending, by partial Fisher–Yates. *)
