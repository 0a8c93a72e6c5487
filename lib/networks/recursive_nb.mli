(** The recursive strictly-nonblocking construction of Pippenger [P82],
    as specialised in §6 of the paper.

    The untruncated network has 2L+1 stages (L = levels): β^L inputs on
    stage 0, β^L outputs on stage 2L, and W = wf·β^L vertices on every
    other stage (paper: β = 4, wf = 64, edge degree 10).  Stage i
    (1 ≤ i ≤ L) is partitioned into β^(L−i) blocks of wf·β^i vertices;
    between stages i and i+1 each child block is joined to every quarter
    of its parent block by unions of random perfect matchings so that
    every vertex has out- and in-degree exactly [degree] — the
    (32·4^i, 33.07·4^i, 64·4^i)-expanding graphs of the paper, realised as
    seeded random expanders (Bassalygo–Pinsker flavour) and certified
    separately.  The right half is the mirror image of the left.

    The paper's fault-tolerant network 𝒩 uses this construction {e scaled
    up} (levels = u + γ) and {e truncated} (first and last γ stages
    removed); the [trim] and [first_stage]/[last_stage] hooks exist
    precisely so the core library can graft its directed grids onto the
    exposed blocks. *)

type params = {
  branching : int;  (** β: block fan (paper: 4) *)
  width_factor : int;  (** wf: block width at level 0 (paper: 64) *)
  degree : int;  (** out/in-degree inside expanding graphs (paper: 10) *)
}

val paper_params : params

val scaled_params : ?branching:int -> ?width_factor:int -> ?degree:int -> unit -> params
(** Defaults: β = 4, wf = 4, degree = 6 — same shape, test-sized
    constants. *)

type t = {
  stages : int array array;
      (** retained stages (outermost [trim] stages removed), in order *)
  levels : int;
  trim : int;
  params : params;
}

val build :
  builder:Ftcsn_graph.Digraph.Builder.t ->
  rng:Ftcsn_prng.Rng.t ->
  params:params ->
  levels:int ->
  trim:int ->
  ?first_stage:int array ->
  ?last_stage:int array ->
  unit ->
  t
(** Emit the construction into [builder].  [trim] removes that many stages
    from each end (0 ≤ trim ≤ levels).  When provided, [first_stage]
    ([last_stage]) supplies pre-existing builder vertices to use as the
    first (last) retained stage — they must number W when trim ≥ 1, or
    β^levels when trim = 0.  Fresh vertices are allocated otherwise. *)

val block_width : params -> level:int -> int
(** wf·β^level. *)

val make : rng:Ftcsn_prng.Rng.t -> params:params -> levels:int -> Network.t * t
(** Standalone untruncated network (trim = 0) with β^levels terminals. *)
