(** Structure-aware single-request routing on Beneš networks.

    {!Ftcsn_networks.Benes.route} runs the looping algorithm on whole
    permutations; the DES routes one call at a time.  This router applies
    the same idea per request: at each [Split] of the recursive block
    tree a request has exactly two continuations — through the top or the
    bottom subnetwork — so assigning halves by descending the tree visits
    O(log n) blocks on the fault-free fast path instead of searching the
    flat graph.  The two-way descent enumerates {e every} input→output
    path, so exhaustive failure is a genuine block; a visit budget
    (O(depth) nodes) caps pathological fault patterns, after which the
    router falls back to the exact {!Staged_route} search — accept/block
    decisions always match the full-BFS oracle.

    Like {!Staged_route}, a route call allocates zero minor words; it is
    the [Route_loop] DES policy and the [--policy loop] CLI spelling.
    Past the budget, and for requests that are not an input/output pair,
    {!Staged_route.route_into} answers: its dive, or its backward pass
    past the dive's own cap. *)

type t

val create : Ftcsn_networks.Network.t -> t option
(** [Some] only for the canonical Beneš family: the name must be
    [benes-N], and the graph is validated edge-for-edge against a fresh
    {!Ftcsn_networks.Benes.make} (O(n log n), once) so the block tree is
    guaranteed to describe it.  Anything else gets [None] and callers
    fall back to {!Staged_route} or plain BFS. *)

val path_length : t -> int
(** Vertices on every input→output path: [2 log2 n]. *)

val route_into :
  t ->
  allowed:(int -> bool) ->
  edge_ok:(int -> bool) ->
  src:int ->
  dst:int ->
  buf:int array ->
  int
(** Same contract as {!Staged_route.route_into}: path into
    [buf.(0 .. len-1)], length returned, [-1] iff a full BFS over the
    same masks would block.  Requests whose endpoints are not an
    input/output pair are answered by the staged fallback.  [buf] needs
    {!Staged_route.stages} slots ([2 log2 n], {!path_length}), whichever
    search answers, and a blocked search may still overwrite them.
    @raise Invalid_argument on out-of-range vertices, or before any
    search on a buffer shorter than that. *)
