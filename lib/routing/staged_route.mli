(** Level-bounded bidirectional BFS for strictly staged networks.

    The paper's constructions are leveled multistage graphs: every edge
    joins consecutive stages, so every input→output path has the same
    length and crosses each level exactly once.  Routing a single request
    therefore does not need to scan the whole masked CSR (the O(E)
    per-call cost of {!Greedy}'s plain BFS at million-switch sizes): a
    forward frontier from the source expanding only into the next stage
    and a backward frontier from the destination expanding only into the
    previous stage meet in the middle after O(depth × frontier) work —
    on a depth-d Beneš each side touches O(2^(d/2)) vertices where the
    flat BFS visits a constant fraction of the graph plus an O(V) scratch
    refill.

    Both bounded sweeps are exhaustive within their level ranges, so the
    accept/block decision is exactly that of a full BFS over the same
    masks, and the returned path has minimum length (all paths do, in a
    strictly staged graph).  The {e tie-break} among equal-length paths
    differs from CSR-order BFS, which is why the DES keeps plain BFS for
    its bit-identity-pinned default policy and engages this router behind
    the opt-in [Route_staged]/[Route_loop] policies.

    Scratch is epoch-stamped ({!Ftcsn_graph.Arena} style): a route call
    touches only visited vertices and allocates zero minor words. *)

type t

val create : Ftcsn_networks.Network.t -> t option
(** Stage the network from its inputs and build the router, or [None]
    when the graph is cyclic or not strictly staged (callers then fall
    back to plain BFS — the graceful-degradation contract). *)

val stages : t -> int

val level : t -> int -> int
(** Stage of a vertex; [-1] for (isolated) unleveled vertices. *)

val route_into :
  t ->
  allowed:(int -> bool) ->
  edge_ok:(int -> bool) ->
  src:int ->
  dst:int ->
  buf:int array ->
  int
(** Shortest [src → dst] path over the masks, written into
    [buf.(0 .. len-1)] with its length returned; [-1] when blocked —
    exactly when a full BFS over the same masks would block.  [allowed]
    gates interior vertices ([src]/[dst] are exempt, matching
    {!Ftcsn_graph.Traverse.shortest_path_arena_buf}); [edge_ok] gates
    edges.  Allocates nothing.
    @raise Invalid_argument on out-of-range vertices or a short buffer. *)
