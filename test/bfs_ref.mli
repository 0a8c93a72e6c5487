(** Allocating shortest-path BFS — a test oracle.

    The textbook search the library ran before every shortest path went
    through {!Ftcsn_graph.Traverse.shortest_path_arena_buf}: FIFO over
    out-edges in CSR order (in-edges too when undirected), a fresh
    parent and seen array per call, [dst] entered regardless of
    [allowed].  test_fastroute and test_graph pin the arena search and
    the router engines' verdicts against it.

    Do not extend or optimise this module — its value is that it does
    not move. *)

val shortest_path :
  ?allowed:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  Ftcsn_graph.Digraph.t ->
  src:int ->
  dst:int ->
  int list option
(** Vertices of one shortest directed path [src ... dst], or [None]. *)

val shortest_path_undirected :
  ?allowed:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  Ftcsn_graph.Digraph.t ->
  src:int ->
  dst:int ->
  int list option
(** As {!shortest_path}, with edges traversed in both directions. *)
