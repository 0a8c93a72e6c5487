(** The random switch failure model (paper, §1–§3).

    Each switch (edge) is independently in one of three states:
    - {e open failure} (probability ε₁): the switch is permanently off —
      the edge ceases to exist;
    - {e closed failure} (probability ε₂): the switch is permanently on —
      the edge's endpoints contract to one vertex;
    - {e normal} (probability 1 − ε₁ − ε₂): a controllable switch.

    A fault pattern assigns a state to every edge id of a graph. *)

type state = Normal | Open_failure | Closed_failure

type pattern = state array
(** Indexed by edge id. *)

val state_equal : state -> state -> bool

val sample : Ftcsn_prng.Rng.t -> eps_open:float -> eps_close:float -> m:int -> pattern
(** Independent per-edge sample.  Requires [eps_open + eps_close <= 1]. *)

val sample_into :
  Ftcsn_prng.Rng.t -> eps_open:float -> eps_close:float -> pattern -> unit
(** Refill a preallocated pattern in place, drawing one uniform per edge
    in ascending edge order — the same stream consumption as {!sample},
    so the two agree draw-for-draw on equal streams.  This is the
    zero-allocation inner loop used by the {!Ftcsn_sim.Trials} scratch
    buffers. *)

val sample_tilted_into :
  Ftcsn_prng.Rng.t -> tilt_open:float array -> tilt_close:float array ->
  pattern -> unit
(** Independent per-edge sample under {e per-edge} failure probabilities
    — the proposal draw of importance-tilted estimation
    ({!Ftcsn_reliability.Splitting}).  Edge [e] is open with probability
    [tilt_open.(e)], closed with [tilt_close.(e)]; one uniform is drawn
    per edge in ascending edge order, so with constant tilt arrays this
    agrees with {!sample_into} draw-for-draw on equal streams.  Requires
    [tilt_open.(e) + tilt_close.(e) <= 1] for every edge and lengths
    equal to the pattern's. *)

val sample_uniforms_into : Ftcsn_prng.Rng.t -> float array -> unit
(** Draw one uniform per cell in ascending index order into a
    caller-owned buffer (length [edge_count]).  Consumes the stream
    exactly as {!sample_into} does, so
    [sample_into rng ~eps_open ~eps_close p] is equivalent to
    [sample_uniforms_into rng u; classify_into ~uniforms:u ~eps_open
    ~eps_close p] on equal streams — the common-random-numbers (CRN)
    decomposition behind the ε-curve sweep path. *)

val classify_into :
  uniforms:float array -> eps_open:float -> eps_close:float -> pattern -> unit
(** Threshold a stored draw vector into a fault pattern:
    [u < eps_open] ⇒ [Open_failure], [u < eps_open +. eps_close] ⇒
    [Closed_failure], else [Normal] — the same thresholds, in the same
    order, as {!sample_into}.  Calling this at several (ε₁, ε₂) grid
    points over one [uniforms] vector yields coupled patterns whose
    non-normal edge sets are nested as ε₁ + ε₂ grows.  Requires
    [eps_open + eps_close <= 1] and equal lengths. *)

val check_probabilities : eps_open:float -> eps_close:float -> unit
(** The rates {!sample}, {!sample_into} and the classifiers accept.
    @raise Invalid_argument unless [eps_open >= 0], [eps_close >= 0] and
    [eps_open +. eps_close <= 1] (NaN is rejected). *)

val failed_edges_into :
  uniforms:float array -> eps_open:float -> eps_close:float -> int array -> int
(** Write the edges that {!classify_into} makes non-normal at these
    rates ([u < eps_open +. eps_close]) to the front of a caller buffer,
    in ascending order, and return their number.  The buffer must have
    room for every edge.  Over one draw vector, the edges failed at the
    largest rates of an ε grid include every edge that fails at any of
    its points, so a grid walk reclassifies only those
    ({!classify_listed_into}). *)

val classify_listed_into :
  uniforms:float array ->
  eps_open:float ->
  eps_close:float ->
  edges:int array ->
  count:int ->
  failed:int array ->
  pattern ->
  int
(** {!classify_into} for the edges [edges.(0 .. count-1)] only; the rest
    of [pattern] is left as it is.  Writes the listed edges that fail to
    the front of [failed], in list order, and returns their number. *)

val all_normal : int -> pattern

val count : pattern -> state -> int

val faulty_vertices_into :
  Ftcsn_graph.Digraph.t -> pattern -> Ftcsn_util.Bitset.t -> unit
(** Clear a caller-owned bitset (capacity [vertex_count g]) and fill it
    with the vertices incident to at least one failed edge — the paper's
    §6 notion "say a vertex η of 𝒩 is faulty if an edge (ζ, η) or (η, ζ)
    is in open or closed failure state". *)
