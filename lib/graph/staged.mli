(** Staged-DAG views.

    Both the recursive nonblocking construction and the directed grids of
    the paper are staged graphs: every edge goes from stage [i] to stage
    [i+1].  This module assigns stages and audits stagedness, which the
    construction code relies on (Lemma 3's "directed and staged graph"
    remark). *)

type t = {
  stage : int array;  (** stage of each vertex, [-1] if unreachable *)
  stages : int;  (** number of stages = max stage + 1 *)
}

val of_sources : Digraph.t -> sources:int list -> t
(** Stage = longest-path distance from the sources (DAG required). *)

val vertices_at : t -> int -> int list
(** Vertices on the given stage, ascending. *)

val stage_sizes : t -> int array

val stage_edge_counts : Digraph.t -> t -> int array
(** [counts.(i)] = number of edges leaving stage [i]. *)
