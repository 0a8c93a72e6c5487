(** Hopcroft–Karp maximum bipartite matching, O(E sqrt(V)).

    Used by the Beneš looping algorithm's frame decomposition and by the
    expander certifiers (a (c, c')-expansion failure is a deficient Hall
    set, witnessed through matchings). *)

type t = {
  pair_left : int array;  (** matched right vertex per left vertex, -1 if free *)
  pair_right : int array;  (** matched left vertex per right vertex, -1 if free *)
  size : int;  (** cardinality of the matching *)
}

val matching : n_left:int -> n_right:int -> adj:int array array -> t
(** [matching ~n_left ~n_right ~adj] where [adj.(l)] lists the right
    neighbours of left vertex [l]. *)
