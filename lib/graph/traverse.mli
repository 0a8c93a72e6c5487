(** Graph traversals: directed BFS distances, DFS, topological order,
    reachability.

    The searches take an [edge_ok : eid -> bool] mask that
    hides edges from the walk without rebuilding the graph.  Because CSR
    adjacency lists keep edges in ascending edge-id order, traversing the
    original graph under a mask visits vertices in exactly the order a
    subgraph rebuilt from the kept edges would — masked traversals are
    bit-identical to their rebuild-based equivalents.
    {!bfs_directed_into} and {!shortest_path_arena_buf} additionally take
    caller-owned scratch so the Monte-Carlo and call-routing hot paths
    perform no per-search allocation. *)

val bfs_directed :
  ?allowed:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  Digraph.t ->
  sources:int list ->
  int array
(** [bfs_directed g ~sources] is the array of directed hop distances from
    the source set; [-1] marks unreachable vertices.  [allowed] restricts the
    traversal to permitted vertices (sources are visited regardless);
    [edge_ok] restricts it to permitted edges. *)

val bfs_directed_into :
  ?allowed:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  Digraph.t ->
  sources:int list ->
  queue:int array ->
  dist:int array ->
  unit
(** Allocation-free {!bfs_directed}: distances are written into [dist]
    (fully re-initialised to [-1] first) using [queue] as the BFS ring
    buffer.  Both arrays must have length at least [vertex_count g]. *)

val reachable : ?allowed:(int -> bool) -> Digraph.t -> sources:int list -> Ftcsn_util.Bitset.t
(** Directed reachability set. *)

val topological_order : Digraph.t -> int array option
(** Kahn's algorithm; [None] when the graph has a directed cycle. *)

val is_acyclic : Digraph.t -> bool

val longest_path_dag : Digraph.t -> sources:int list -> int array
(** For a DAG: longest directed path length (in edges) from the source set
    to each vertex, [-1] if unreachable.
    @raise Invalid_argument on cyclic input. *)

val depth : Digraph.t -> inputs:int list -> outputs:int list -> int
(** The network-depth measure of the paper (§2): the largest number of
    edges on any directed input→output path.  Requires acyclicity.
    Returns [-1] when no output is reachable. *)

val shortest_path_arena_buf :
  allowed:(int -> bool) ->
  edge_ok:(int -> bool) ->
  Digraph.t ->
  arena:Arena.t ->
  src:int ->
  dst:int ->
  buf:int array ->
  int
(** One shortest directed path [src ... dst] by BFS in CSR edge order,
    through [allowed] interior vertices (the endpoints need not be
    allowed) and [edge_ok] edges, on an epoch-stamped {!Arena}.
    Starting a search is a generation bump instead of an O(vertex-count)
    array fill, and the call allocates zero minor words ([allowed]/[edge_ok] are required
    rather than optional precisely so the call site builds no [Some]
    wrappers).  The path is written into [buf.(0 .. len-1)] and its
    length returned, or [-1] when no path exists.  [arena] and [buf]
    must cover the vertex count. *)

val shortest_path :
  ?allowed:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  Digraph.t ->
  src:int ->
  dst:int ->
  int list option
(** {!shortest_path_arena_buf} on a fresh arena, as a list: the same
    path, or [None].  For cold callers; a router keeps its own arena. *)
