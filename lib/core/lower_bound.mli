(** Lower-bound certificates (paper, §5: Lemma 2 and Theorem 1).

    Theorem 1 says a (1/4, 1/2)-n-superconcentrator must have size
    ≥ n(log₂ n)²/2688 and depth ≥ (1/12) log₂ n, via two measurable
    structures:
    + {e good inputs} — at least n/2 inputs pairwise farther apart than
      (1/12) log₂ n in the undirected metric (otherwise closed failures
      short two inputs too easily, Lemma 2); two good inputs force depth
      ≥ half their distance;
    + {e zones} — around each good input v, B_h(v) is the set of edges at
      undirected distance exactly h; every zone within the radius must
      hold Ω(log n) edges (otherwise open failures isolate v), and the
      disjoint neighbourhoods sum to Ω(n log² n) edges.

    [analyse] computes these certificates on a concrete network so that
    experiments E3/E10 can print predicted-vs-measured evidence. *)

type zone_report = {
  input_vertex : int;
  zone_sizes : int array;  (** |B_h(v)| for h = 1..radius *)
  min_zone : int;
  neighbourhood_edges : int;  (** |B(v)| = Σ_h |B_h(v)| *)
}

type report = {
  n : int;
  threshold : int;  (** pairwise-distance requirement used *)
  good_input_vertices : int array;
  good_fraction : float;  (** |good| / n *)
  depth_certificate : int;
      (** ⌈threshold/2⌉ when ≥ 2 good inputs exist, else 0 — a valid depth
          lower bound for any superconcentrator containing them *)
  zones : zone_report list;
  neighbourhood_total : int;
      (** Σ over analysed good inputs of |B(v)| — disjoint by construction,
          hence a size lower bound on the analysed region *)
}

val default_threshold : n:int -> int
(** ⌊(1/12) log₂ n⌋, at least 1. *)

val default_radius : threshold:int -> int
(** ⌊(threshold − 1) / 2⌋, at least 1 — keeps neighbourhoods disjoint. *)

val analyse :
  ?threshold:int -> ?radius:int -> ?max_inputs:int ->
  Ftcsn_networks.Network.t -> report
(** Full §5 audit: a maximal greedy set of good inputs with pairwise
    undirected distance ≥ [threshold] (default {!default_threshold}),
    and the zones of each up to [radius] (default {!default_radius}).
    [max_inputs] (default 64) caps the number of good inputs whose zones
    are expanded. *)

type lemma2_certificate = {
  threshold_used : int;  (** the j of the construction *)
  linked_inputs : int;  (** inputs with another input within distance j *)
  forest_edges : int;
  input_leaf_count : int;  (** inputs that are leaves of the greedy forest *)
  shorting_families : int list list;
      (** edge-disjoint input-to-input paths of the contracted forest,
          each of contracted length ≤ 3 (original length ≤ 3j) — every one
          is an independent closed-failure shorting opportunity *)
}

val lemma2_certificate : ?threshold:int -> Ftcsn_networks.Network.t -> lemma2_certificate
(** The constructive machinery of Lemma 2: for each input take its
    shortest undirected path (≤ threshold, default
    {!default_threshold}) to another input; greedily keep the longest
    initial segment edge-disjoint from the forest built so far; contract
    degree-2 stretches; extract a maximal family of edge-disjoint
    length-≤3 leaf-to-leaf paths (Corollary 1) and keep those joining two
    inputs.  Many families ⇒ the network shorts w.h.p. at ε = 1/4, which
    is how Lemma 2 forces good inputs to be far apart. *)

val theorem1_size_bound : n:int -> float
(** n(log₂ n)²/2688 — the paper's explicit size bound. *)

val theorem1_depth_bound : n:int -> float
(** (1/12) log₂ n. *)
