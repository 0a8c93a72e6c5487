(** Lubotzky–Phillips–Sarnak Ramanujan graphs [LPS] — cited by the paper
    as the best explicit expander construction known.

    X^{p,q} is the Cayley graph of PGL₂(𝔽_q) with respect to the p+1
    integer quaternions of norm p (a odd positive, b, c, d even), mapped
    to matrices [[a + ib, c + id], [−c + id, a − ib]] where i² ≡ −1
    (mod q).  These graphs are (p+1)-regular and {e Ramanujan}: every
    nontrivial adjacency eigenvalue has |λ| ≤ 2√p.

    We expose the bipartite double cover (inlet g joined to outlet s·g
    for each generator s), which is what switching-network constructions
    consume; its second singular value inherits the 2√p bound, checked in
    the tests against {!Spectral.second_singular_value}. *)

val make : p:int -> q:int -> Bipartite.t
(** [make ~p ~q] for distinct primes p, q ≡ 1 (mod 4), q > 2√p.
    When the Legendre symbol (p|q) = −1 the graph lives on PGL₂(𝔽_q)
    (q(q−1)(q+1) vertices per side, bipartite between determinant
    classes); when (p|q) = +1 it lives on PSL₂(𝔽_q) (half as many
    vertices) and is connected and non-bipartite.  Degree p+1 either way.
    @raise Invalid_argument when the arithmetic preconditions fail. *)
