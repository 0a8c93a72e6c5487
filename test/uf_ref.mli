(** Plain disjoint-set forest (union by rank, path compression, O(n)
    reset) — the test oracles' own, independent of the library's
    generation-stamped {!Ftcsn_util.Union_find}.

    Do not extend or optimise this module — its value is that it does
    not move. *)

type t

val create : int -> t
(** [create n] is [n] singleton classes [0 .. n-1]. *)

val size : t -> int
(** The universe size [n]. *)

val reset : t -> unit
(** Restore [n] singleton classes in place. *)

val find : t -> int -> int
(** Canonical representative, with path compression. *)

val union : t -> int -> int -> unit

val equiv : t -> int -> int -> bool
