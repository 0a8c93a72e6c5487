(** Moore–Shannon (ε, ε′)-1-networks as series-parallel compositions
    (paper, Proposition 1).

    An (ε, ε′)-1-network is a two-terminal graph of unreliable switches
    whose two failure modes — {e open} (no input→output path survives) and
    {e short} (input and output contract through closed failures) — both
    have probability < ε′.  Moore and Shannon build them by alternating
    series composition (which squares the short probability) and parallel
    composition (which squares the open probability); iterating the 2×2
    quad squares both at a 4× size and 2× depth cost, giving the
    Proposition-1 scaling: size Θ((log 1/ε′)²), depth Θ(log 1/ε′).

    For series-parallel graphs both failure probabilities obey exact
    product recurrences (disjoint subnetworks fail independently and
    connectivity decomposes along the composition), so designs carry exact
    analytical bounds that the tests cross-check against exact
    enumeration and {!Monte_carlo}. *)

type spec =
  | Edge  (** a single switch *)
  | Series of spec list
  | Parallel of spec list

val quad : spec -> spec
(** [quad s] = series of two parallels of two copies of [s] — one
    Moore–Shannon amplification round. *)

val iterate_quad : int -> spec
(** [iterate_quad k] = [quad]^k applied to a single edge. *)

val size : spec -> int
(** Number of switches. *)

val depth : spec -> int
(** Longest input→output path, in switches. *)

val open_prob : spec -> eps_open:float -> eps_close:float -> float
(** Exact probability that no input→output path survives. *)

val short_prob : spec -> eps_open:float -> eps_close:float -> float
(** Exact probability that input and output contract through closed
    failures. *)

val design : eps:float -> eps':float -> spec
(** Smallest quad-iteration count whose exact open and short probabilities
    at switch failure rates ε₁ = ε₂ = ε are both < ε′.
    @raise Invalid_argument when ε ≥ 1/4 (amplification needs 2ε(2-ε) < 1,
    guaranteed below 1/4, mirroring the paper's 0 < ε < 1/2 with a safety
    margin for the quad gadget). *)

type built = {
  graph : Ftcsn_graph.Digraph.t;
  input : int;
  output : int;
}

val build : spec -> built
(** Realise the spec as a two-terminal digraph (edges directed
    input→output). *)

val pp : Format.formatter -> spec -> unit
