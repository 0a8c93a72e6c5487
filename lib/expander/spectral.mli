(** Spectral expansion estimates.

    For a d-regular bipartite graph with biadjacency matrix B, the second
    singular value σ₂ of B/d controls expansion (expander mixing lemma);
    the Ramanujan bound of Lubotzky–Phillips–Sarnak [LPS], cited by the
    paper as the best explicit construction, is σ₂ ≤ 2√(d−1)/d.  We
    estimate σ₂ by power iteration on BᵀB with deflation of the top
    (all-ones) singular pair — a few dense mat-vec products, no external
    linear algebra. *)

val second_singular_value : ?iterations:int -> Bipartite.t -> float
(** Estimate of σ₂(B)/d for a [d]-max-degree bipartite graph (normalised
    by the maximum inlet degree).  Deterministic start vector. *)

val ramanujan_bound : degree:int -> float
(** 2√(d−1)/d. *)
