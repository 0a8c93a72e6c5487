(** Epoch-stamped BFS search arenas.

    The [_into] traversal scratch (parent + queue arrays) costs an
    O(vertex-count) [Array.fill] per search to reset, which dominates the
    per-call price of routing on million-switch networks where a search
    touches only a few thousand vertices.  An arena replaces the refill
    with the generation-stamp trick of {!Ftcsn_util.Union_find}:
    [stamp.(v) = gen] means "visited in the current search", and starting
    a new search is a counter bump ({!next_generation}) — O(1), touching
    nothing.  [parent.(v)] is only meaningful when [v] is stamped with
    the current generation.

    The [head]/[tail]/[gen] cursors are mutable record fields rather than
    caller-side [ref]s so that a search performs {e zero} minor-heap
    allocation — the DES call path asserts this in the test suite. *)

type t = {
  parent : int array;  (** BFS tree parent; valid iff stamped current *)
  stamp : int array;  (** visit mark: [stamp.(v) = gen] means visited *)
  queue : int array;  (** FIFO ring storage *)
  mutable gen : int;  (** current search generation *)
  mutable head : int;  (** FIFO cursor, owned by the running search *)
  mutable tail : int;  (** FIFO cursor, owned by the running search *)
}

val create : int -> t
(** Arena for graphs of at most the given vertex count.  All vertices
    start unvisited. *)

val size : t -> int

val generation : t -> int

val next_generation : t -> int
(** Invalidate every visit mark in O(1) and return the fresh
    generation. *)
