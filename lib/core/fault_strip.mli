(** Fault stripping: recover a working subnetwork after failures.

    The paper's §4 remark: "with high probability we can find a nonblocking
    network contained in the fault-tolerant network merely by discarding
    faulty components and their immediate neighbors, so no difficult
    computations are hidden here".  A vertex is {e faulty} when one of its
    incident switches failed (§6).  Stripping forbids faulty internal
    vertices (and, at radius 1, their neighbours); terminals are kept —
    any surviving path through allowed internal vertices automatically
    uses only normal-state switches, because a failed switch marks both
    its endpoints faulty.

    A [ws] bundles everything a stripping trial mutates — the fault
    bitsets, a {!Ftcsn_reliability.Scratch.t} (union-find, fault-pattern
    buffer) and the isolated-input search's stamps and stack — so one
    workspace per worker domain serves any number of trials without
    allocating.  Consumers route over the original graph with
    {!ws_edge_ok} masking failed switches instead of rebuilding a
    survivor subgraph; the qcheck suite pins the results against the
    subgraph-rebuilding oracle in [test/strip_ref.ml].  Workspaces are
    single-domain state. *)

type ws

val create_ws : Ftcsn_networks.Network.t -> ws

val ws_net : ws -> Ftcsn_networks.Network.t

val ws_scratch : ws -> Ftcsn_reliability.Scratch.t

val ws_pattern : ws -> Ftcsn_reliability.Fault.pattern
(** The workspace's own pattern buffer (refill with
    {!Ftcsn_reliability.Fault.sample_into}, then pass to
    {!strip_into}). *)

val strip_into : ?radius:int -> ws -> Ftcsn_reliability.Fault.pattern -> unit
(** Strip [pattern] into the workspace: recomputes the faulty/stripped
    sets, the contraction classes and the shorted-terminal list
    (usually for {!ws_pattern}, but any pattern of the right arity works
    — criticality scans pass perturbed copies).  [radius] 0 (default)
    forbids faulty vertices; 1 also forbids their graph neighbours (the
    paper's conservative variant), and so on.  Masks and queries below
    refer to the most recent strip.  One scan of [pattern] lists its
    non-normal edges into {!ws_listed}, then {!strip_listed} runs on
    that list.
    @raise Invalid_argument on a negative [radius]. *)

val strip_listed :
  ?radius:int ->
  ws ->
  Ftcsn_reliability.Fault.pattern ->
  edges:int array ->
  count:int ->
  unit
(** {!strip_into} for a caller that already knows the non-normal edges:
    [edges.(0 .. count-1)] must be exactly the edges [pattern] does not
    hold [Normal], each once, in any order.  The strip then reads only
    those edges, so at radius 0 it costs O([count] + n/63) instead of
    O(m): the survival curve re-strips a trial's pattern at every grid
    point this way, and {!Rare.threshold} each prefix it bisects.
    @raise Invalid_argument on a negative [radius] or a [pattern] of the
    wrong arity. *)

val ws_listed : ws -> int array
(** The workspace's edge-list buffer, one slot per edge: {!strip_into}
    lists a pattern's non-normal edges there, and a caller may list them
    there itself (as {!Ftcsn_reliability.Fault.classify_listed_into}
    does for the survival curve) before {!strip_listed}, so one buffer
    serves both. *)

val ws_allowed : ws -> int -> bool
(** Vertex mask of the current strip — terminals plus unstripped
    internal vertices (same closure across trials; reads workspace
    state). *)

val ws_edge_ok : ws -> int -> bool
(** Edge mask of the current strip: true on normal-state switches. *)

val ws_shorted_terminals : ws -> (int * int) list
(** Terminal pairs contracted by closed failures (the Lemma 7 event). *)

val ws_healthy : ws -> bool
(** No terminals were shorted together. *)

val ws_stripped : ws -> Ftcsn_util.Bitset.t
(** Faulty vertices plus their radius-neighbourhood. *)

val ws_isolated_inputs : ws -> int list
(** Input indices with no remaining path to any output through allowed
    vertices and normal switches — the open-failure disconnection event
    of Lemma 3.  For each input in index order, an iterative depth-first
    search over the forward graph under the strip's masks stops at the
    first output, or at a vertex an earlier search of the same call
    proved reaches one.  Tarjan's lowlinks mark every vertex a search
    enters as reaching an output or not, exactly on cyclic graphs too,
    so no vertex is explored twice in a call: it costs O(n + m) at most,
    and only what the searches enter in practice.  Marks are epoch
    stamps, so a call needs no n-sized fill, and it allocates only the
    returned list. *)
