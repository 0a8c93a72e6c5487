(** Disjoint-set forests with union by rank and path compression.

    Closed switch failures contract edge endpoints (paper, §2); the
    contraction quotient is computed with this structure. *)

type t

val create : int -> t
(** [create n] is [n] singleton classes [0 .. n-1]. *)

val size : t -> int
(** The universe size [n]. *)

val reset : t -> unit
(** Restore [n] singleton classes in place, without allocating — the
    per-trial reuse hook of the simulation scratch workspaces. *)

val find : t -> int -> int
(** Canonical representative, with path compression. *)

val union : t -> int -> int -> unit

val equiv : t -> int -> int -> bool

(** Generation-stamped forest with O(1) reset.

    Same union-by-rank/path-compression semantics as the plain structure,
    but {!Stamped.reset} bumps a generation counter instead of rewriting
    the arrays: an element with a stale stamp is treated as a fresh
    singleton and lazily re-initialised by {!Stamped.find}.  This is what
    lets a million-vertex workspace be "cleared" between uses for free —
    the scratch-path contraction in {!Ftcsn_reliability.Survivor}. *)
module Stamped : sig
  type t

  val create : int -> t
  (** [create n] is [n] singleton classes [0 .. n-1], in generation 1. *)

  val size : t -> int

  val reset : t -> unit
  (** Restore [n] singleton classes in O(1) by bumping the generation. *)

  val find : t -> int -> int

  val union : t -> int -> int -> unit

  val equiv : t -> int -> int -> bool
end
