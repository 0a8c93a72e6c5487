(** Exact references for the reliability estimators — a test oracle.

    Enumeration of all 3^m fault patterns gives event probabilities and
    §3's failure polynomial exactly on networks of at most {!max_edges}
    switches (3^13 ≈ 1.6M patterns).  test_reliability, test_rare and
    test_integration anchor the Monte-Carlo, tilted, splitting and
    series-parallel estimates on it.  Moore–Shannon rectangles are the
    other anchor: their open and short probabilities have closed forms. *)

val max_edges : int
(** Enumeration ceiling (13). *)

val probability :
  Ftcsn_graph.Digraph.t ->
  eps_open:float ->
  eps_close:float ->
  (Ftcsn_reliability.Fault.pattern -> bool) ->
  float
(** P[event] under the product measure of §3.
    @raise Invalid_argument when the graph has more than {!max_edges}
    edges. *)

type poly = {
  coeffs : float array;
      (** [coeffs.(k)]: the failing patterns with exactly k failed
          switches, each weighted 2⁻ᵏ, so that
          P(ε) = Σ_k coeffs.(k) · (2ε)^k · (1−2ε)^(m−k) at ε₁ = ε₂ = ε *)
  switches : int;  (** m *)
}
(** §3's failure polynomial: the δ-invariance argument rests on the
    failure probability being a polynomial in ε whose constant term
    vanishes. *)

val failure_polynomial :
  Ftcsn_graph.Digraph.t -> (Ftcsn_reliability.Fault.pattern -> bool) -> poly
(** Coefficients by enumeration.
    @raise Invalid_argument beyond {!max_edges} edges. *)

val eval : poly -> eps:float -> float
(** P(ε) at ε₁ = ε₂ = ε. *)

val constant_term_vanishes : poly -> bool
(** coeffs.(0) = 0: the network does not fail unless some switch does. *)

val delta_rescaling_bound : poly -> eps:float -> ratio:float -> bool
(** P(ε·ratio) ≤ ratio · P(ε) for 0 < ratio ≤ 1 — the inequality behind
    δ-invariance, checked on this instance. *)

val rectangle : j:int -> k:int -> Ftcsn_reliability.Sp_network.spec
(** The [MS] j×k rectangle: k parallel branches of j switches in series.
    It shorts iff some branch is all-closed (probability 1−(1−ε^j)^k) and
    opens iff every branch has an open switch ((1−(1−ε)^j)^k). *)

val design_rectangle :
  eps:float -> target_open:float -> target_short:float ->
  Ftcsn_reliability.Sp_network.spec option
(** The smallest-area rectangle whose closed-form failure probabilities
    at ε₁ = ε₂ = [eps] are below the two targets; [None] if no rectangle
    with j, k ≤ 64 suffices.  The tests check its choice against
    {!Ftcsn_reliability.Sp_network}'s exact recurrences and against the
    symmetric quad design. *)
