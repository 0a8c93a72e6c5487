(** Beneš rearrangeable networks [B] and the looping algorithm.

    B(n) for n a power of two: a column of n/2 2×2 switches, two recursive
    B(n/2) halves, and an output column — size 4·(n/2)·(2 log₂ n − 1) =
    Θ(n log n), matching the Shannon lower bound [S].  The looping
    algorithm 2-colours the request graph (a union of two perfect
    matchings, hence even cycles) to split any permutation across the two
    halves, yielding vertex-disjoint routes for every permutation — the
    constructive proof of rearrangeability.

    In the graph formalism of the paper, a 2×2 switch is the complete
    bipartite graph K₂,₂ on wire vertices, so each switch contributes four
    graph edges (switch crosspoints). *)

(** The recursive block structure, exposed for structure-aware routers
    (the looping router steers a single request down this tree instead of
    searching the flat graph).  [ins]/[outs] are vertex ids; at a [Split],
    entry switch [i] joins [ins.(2i)], [ins.(2i+1)] to [top_in.(i)],
    [bot_in.(i)] (complete bipartite), and symmetrically for the output
    column. *)
type node =
  | Switch of { ins : int array; outs : int array }
  | Split of {
      ins : int array;
      outs : int array;
      top_in : int array;
      bot_in : int array;
      top_out : int array;
      bot_out : int array;
      top : node;
      bot : node;
    }

type t

val make : int -> t
(** [make n] for n ≥ 2 a power of two.  @raise Invalid_argument otherwise. *)

val root : t -> node

val network : t -> Network.t

val create : int -> Network.t
(** [network (make n)] — for callers that only need the graph. *)

val route : t -> Ftcsn_util.Perm.t -> int list array
(** [route t pi] = vertex-disjoint paths, one per input [i], from input
    vertex [i] to output vertex [pi.(i)].  Paths include both endpoints.
    @raise Invalid_argument when the permutation arity differs from n. *)
