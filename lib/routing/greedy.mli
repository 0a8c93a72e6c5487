(** Greedy path-finding for strictly nonblocking operation.

    The paper (§4) notes that in its construction "routing can be performed
    by a greedy application of a standard path-finding algorithm": to
    serve a request, BFS from the input through idle (non-busy, non-faulty)
    vertices to the output, then mark the path busy.  This module is that
    algorithm over an explicit busy mask. *)

type t

type engine = [ `Bfs | `Staged | `Loop ]
(** The deterministic search behind {!route}/{!route_into}:
    - [`Bfs] (default) — CSR-order BFS on an epoch-stamped
      {!Ftcsn_graph.Arena}; works on any graph and returns exactly the
      paths the historical implementation did (the DES's bit-identity
      anchor).
    - [`Staged] — {!Staged_route}'s dive on strictly staged families: a
      backward BFS from the output to the first level [2⌊√width⌋]
      wide, then a depth-first search from the input that stops at the
      first vertex the backward pass reached; past a visit cap the
      backward pass finishes the request.  On the paper's expanders
      a route costs time in proportion to the path, not the fabric.
      Falls back to [`Bfs] when the network is not strictly staged
      (see {!Staged_route.create}: only the part the inputs reach
      counts).
    - [`Loop] — {!Loop_route}'s Beneš block-tree descent, O(depth) on the
      fault-free fast path; falls back to [`Staged] (then [`Bfs]) off the
      Beneš family.

    All three agree exactly on accept vs. blocked; the fast engines may
    pick a {e different equal-length path} among ties, which is why they
    are opt-in. *)

val create :
  ?allowed:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?engine:engine ->
  Ftcsn_networks.Network.t ->
  t
(** Fresh routing state; [allowed] excludes vertices globally (e.g. the
    fault-stripped set), [edge_ok] excludes edges (e.g. failed switches),
    so routing a surviving network needs no subgraph rebuild.  Paths come
    from the deterministic [engine].  The router's searches run on
    internal epoch-stamped scratch, which only the BFS engine sizes
    with an {!Ftcsn_graph.Arena} (3 words per vertex): after creation,
    {!route_into} allocates nothing at all, and {!route} allocates only
    the returned path. *)

val network : t -> Ftcsn_networks.Network.t

val engine_name : t -> string
(** Which engine actually engaged after fallback resolution: ["bfs"],
    ["staged"] or ["loop"] — surfaced by [ftnet traffic] as its
    [router] field. *)

val busy : t -> int -> bool

val route : t -> input:int -> output:int -> int list option
(** Find a path of idle allowed vertices from terminal [input] to terminal
    [output] (vertex ids), mark it busy, and return it.  [None] when
    blocked; state unchanged in that case.
    @raise Invalid_argument if either endpoint is already busy. *)

val release : t -> int list -> unit
(** Un-busy a previously routed path. *)

val occupy : t -> int list -> unit
(** Mark a path busy without routing it — the adoption hook for
    externally computed layouts (e.g. a backtracking re-lay migrating
    every live call at once). *)

val route_into : t -> input:int -> output:int -> buf:int array -> int
(** Allocation-free {!route}: the path vertices are written into
    [buf.(0 .. len-1)] (caller-owned, length at least the vertex count),
    marked busy, and the length returned; [-1] when blocked (state
    unchanged).  The path is exactly what {!route} would return.
    @raise Invalid_argument if an endpoint is busy. *)

val release_buf : t -> int array -> len:int -> unit
(** Un-busy the path in [buf.(0 .. len-1)]. *)

val route_permutation :
  t -> Ftcsn_util.Perm.t -> success:int ref -> int list option array
(** Route input i → output π(i) for all i in order, greedily (no
    backtracking); [success] counts the requests served. *)

val clear : t -> unit
