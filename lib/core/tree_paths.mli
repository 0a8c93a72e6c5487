(** Edge-disjoint short leaf-to-leaf paths in trees (paper, Lemma 1,
    Corollary 1, Figures 1–3).

    Lemma 1: a tree with l leaves whose internal nodes all have degree ≥ 3
    contains at least l/42 edge-disjoint paths, each joining two leaves and
    each of length ≤ 3 (Lin's remark improves 42 to 4).  The lemma powers
    the depth lower bound: such path families turn into closed-failure
    shorting opportunities between network inputs (Lemma 2). *)

type t = {
  n : int;
  adj : int array array;  (** undirected adjacency *)
}

val of_edges : n:int -> (int * int) list -> t
(** Undirected graph from an edge list; duplicate edges rejected. *)

val degree : t -> int -> int

val leaves : t -> int list
(** Vertices of degree 1. *)

val contract_stretches : t -> t
(** Replace every maximal chain of degree-2 vertices by a single edge
    (the Lemma 2 reduction); vertex count unchanged, chain interiors
    become isolated. *)

val short_leaf_paths : ?max_len:int -> t -> int list list
(** A maximal family of edge-disjoint leaf-to-leaf paths of length ≤
    [max_len] (default 3), each given as its vertex list.  Maximality
    follows from greedy extraction: once a leaf finds no partner it never
    will, since the free edge set only shrinks. *)

val lemma1_lower_bound : leaves:int -> int
(** ⌈l/42⌉ — the guaranteed path count. *)

val random_internal3_tree : rng:Ftcsn_prng.Rng.t -> leaves:int -> t
(** A random tree with the given number of leaves in which every internal
    node has degree exactly 3 (grown by repeatedly splitting a random
    leaf into an internal node with two fresh leaves). *)

(** Witness gadgets reproducing the paper's proof figures. *)

val fig1_bad_leaf : unit -> t * int
(** A tree containing a {e bad} leaf (no other leaf within distance 3);
    returns the tree and that leaf. *)

val fig2_crowded_internal : unit -> t * int
(** A tree whose returned internal node is within distance 3 of the
    maximum number (six) of bad-leaf dollar payments. *)

val fig3_path_with_unlucky : unit -> t * int list
(** A tree with a central short leaf path such that four further leaves
    ({e unlucky} ones) lie within distance 2 of it; returns the path. *)

val nearest_leaf_distance : t -> int -> int
(** Distance from a leaf to the nearest other leaf ([max_int] if none). *)
