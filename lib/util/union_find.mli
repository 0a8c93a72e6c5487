(** Disjoint-set forests with union by rank and path compression, and an
    O(1) reset.

    Closed switch failures contract edge endpoints (paper, §2); the
    contraction quotient is computed with this structure.  {!reset} bumps
    a generation counter instead of rewriting the arrays: an element with
    a stale stamp is treated as a fresh singleton and lazily
    re-initialised by {!find}.  This is what lets a million-vertex
    workspace be "cleared" between uses for free — the scratch-path
    contraction in {!Ftcsn_reliability.Survivor}.  The plain forest the
    test oracles use lives in [test/uf_ref.ml]. *)

type t

val create : int -> t
(** [create n] is [n] singleton classes [0 .. n-1]. *)

val reset : t -> unit
(** Restore [n] singleton classes in O(1), without allocating — the
    per-trial reuse hook of the simulation scratch workspaces. *)

val find : t -> int -> int
(** Canonical representative, with path compression. *)

val union : t -> int -> int -> unit

val equiv : t -> int -> int -> bool
