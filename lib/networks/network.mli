(** Circuit-switching networks: a digraph with distinguished input and
    output terminals (paper, §2).

    Size is the number of edges (switches); depth is the largest number of
    edges on any directed input→output path. *)

type t = {
  name : string;
  graph : Ftcsn_graph.Digraph.t;
  inputs : int array;
  outputs : int array;
}

val make :
  name:string -> graph:Ftcsn_graph.Digraph.t -> inputs:int array -> outputs:int array -> t
(** Validates that terminals are distinct vertices in range. *)

val n_inputs : t -> int

val n_outputs : t -> int

val size : t -> int
(** Number of switches (edges). *)

val depth : t -> int
(** Longest input→output path (graph must be acyclic). *)

val is_acyclic : t -> bool

val terminals : t -> int list
(** All inputs then all outputs. *)

val reverse : t -> t
(** The mirror image (paper, §6): inputs and outputs exchanged and every
    edge reversed. *)

val pp : Format.formatter -> t -> unit
