(** Permutations of [0, n).

    Rearrangeable networks are defined by their ability to route every
    permutation of inputs to outputs (paper, §2); these helpers drive the
    exhaustive and sampled rearrangeability checkers and the Beneš looping
    algorithm. *)

type t = int array
(** [p.(i)] is the image of [i].  All values distinct, in [0, length p). *)

val identity : int -> t

val is_valid : t -> bool
(** True iff the array is a permutation of [0, n). *)

val inverse : t -> t

val apply : t -> int -> int

val shuffle : rand_int:(int -> int) -> int -> t
(** [shuffle ~rand_int n] is a Fisher–Yates-uniform permutation, where
    [rand_int k] returns a uniform value in [0, k). *)

val iter_all : int -> (t -> unit) -> unit
(** Enumerate all [n!] permutations (Heap's algorithm).  The callback
    receives a scratch array it must not retain. *)

val cycles : t -> int list list
(** Cycle decomposition; each cycle lists its elements in traversal order. *)

val rotation : int -> int -> t
(** [rotation n k] maps [i] to [(i + k) mod n]. *)

val pp : Format.formatter -> t -> unit
