(** Level-bounded search for strictly staged networks: a dive.

    The paper's constructions are leveled multistage graphs: every edge
    joins consecutive stages, so every input→output path has the same
    length and crosses each level exactly once.  Only the part of the
    graph the inputs reach has to be staged so.  A vertex no input
    reaches (a random multibutterfly splitter leaves a few) lies on no
    input→output path; it gets level [-1], its edges may skip stages,
    and neither search enters it.  The paper routes by "a
    greedy application of a standard path-finding algorithm" (§4), and
    its majority-access argument (Lemmas 3–6) says that most vertices of
    a middle level are reachable from an idle input and co-reachable
    from an idle output.  This router uses that argument as an algorithm,
    so a route costs time in proportion to the path, not to the fabric:
    - a backward BFS from [dst], one whole level at a time, stops after
      the first level [L] that holds at least [B] vertices; that level's
      co-reachable set is then complete;
    - a forward depth-first search from [src] over levels
      [level src .. L], with epoch-stamped dead-end marks, stops at the
      first vertex the backward pass stamped.  On an expander it meets
      the stamped set after a few probes.

    [B = 2⌊√w⌋], where [w] is the widest level, and the forward search
    may enter at most [16 B] vertices.  Both come from the level widths
    at {!create}; nothing is tuned per call.  If the backward frontier
    empties, the request is blocked with no forward work.  If it reaches
    [src]'s level before [B], the verdict is whether it reached [src].
    Past the visit cap, the backward pass resumes from [L] and sweeps
    the rest of [dst]'s cone down to [src]'s level, and the verdict is
    again whether it reached [src], so a block costs at most the cap
    plus one cone.  The [staged.dives] and [staged.sweep_fallbacks]
    counters of {!Ftcsn_obs.Metrics.default} count the requests that ran
    the forward search and those that hit the cap.

    Every path crosses level [L], and each search is exhaustive within
    its level range, so the accept/block decision is exactly that of a full
    BFS over the same masks, and the returned path has minimum length
    (all paths do, in a strictly staged graph).  The {e tie-break} among
    equal-length paths differs from CSR-order BFS, which is why the DES
    keeps plain BFS for its bit-identity-pinned default policy and
    engages this router behind the opt-in [Route_staged]/[Route_loop]
    policies.

    Scratch is epoch-stamped ({!Ftcsn_graph.Arena} style) and the forward
    search keeps one stack frame per level: a route call touches only
    visited vertices and allocates zero minor words. *)

type t

val create : Ftcsn_networks.Network.t -> t option
(** Stage the network from its inputs and build the router, or [None]
    when the graph is cyclic or some edge out of a vertex an input
    reaches does not climb exactly one stage (callers then fall back to
    plain BFS — the graceful-degradation contract). *)

val stages : t -> int
(** Number of levels: the vertex count of the longest path a search can
    return, and the buffer length {!route_into} requires. *)

val level : t -> int -> int
(** Stage of a vertex; [-1] for a vertex no input reaches. *)

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
    edges.  [buf] needs {!stages} slots, and a blocked search may still
    overwrite them.  Allocates nothing.
    @raise Invalid_argument on out-of-range vertices, on a [src] that no
    input reaches but that has out-edges (its paths have no levels to go
    by), or before any search on a buffer shorter than {!stages}. *)
