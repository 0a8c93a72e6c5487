(** Exact routing of request sets by backtracking search.

    Routing a {e specified} pairing with vertex-disjoint paths is NP-hard
    in general graphs, so the exact rearrangeability checker (paper §2
    definition: every permutation routable) uses exhaustive backtracking
    over per-request path choices with an explicit work budget.  Intended
    for small networks; large ones are handled statistically via
    {!Greedy} and {!Flow_route}. *)

type outcome =
  | Routed of int list list  (** paths in request order *)
  | Unroutable
  | Budget_exceeded

val route_all :
  ?budget:int ->
  ?allowed:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  Ftcsn_networks.Network.t ->
  (int * int) list ->
  outcome
(** Vertex-disjoint paths realising every (input vertex, output vertex)
    request simultaneously.  [budget] (default 200_000) bounds the number
    of search-tree node expansions.  [allowed]/[edge_ok] restrict the
    usable vertices/edges; because adjacency lists keep ascending edge-id
    order, searching a masked graph expands exactly the nodes the
    corresponding subgraph search would, so outcomes (including budget
    exhaustion) are identical.  Paths never pass {e through} a terminal
    vertex (in the paper's staged networks terminals have no
    through-edges anyway). *)
