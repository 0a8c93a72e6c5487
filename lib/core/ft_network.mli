(** The fault-tolerant nonblocking network 𝒩 of the paper (§6, Fig. 5).

    𝒩 composes, left to right:
    + n input terminals, each fanning out to every vertex of the first
      column of its own (grid_rows × grid_stages) directed grid Φᵢ;
    + the recursive middle network ℳ ([P82] scaled up to levels u + γ and
      truncated by γ stages at each end), whose first-stage blocks are
      {e identified} with the grids' last columns;
    + mirrored output grids Ψⱼ, whose last columns drain into the n
      output terminals.

    The grids defeat open failures (isolating a terminal needs a cut of
    ~grid_rows failures — Lemma 3); the logarithmic oversizing γ leaves
    the expanding graphs with enough slack to absorb faulty outlets
    (Lemmas 4–5); shorting of terminals needs ≥ 2u consecutive closed
    failures (Lemma 7).  Theorem 2: with the paper constants this is a
    (10⁻⁶, δ)-nonblocking n-network of ≤ 49·n·(log₄ n)² switches and
    ≤ 5·log₄ n depth. *)

type t = {
  net : Ftcsn_networks.Network.t;
  params : Ft_params.t;
  input_grids : Directed_grid.t array;
  output_grids : Directed_grid.t array;
  middle : Ftcsn_networks.Recursive_nb.t;
}

val make : rng:Ftcsn_prng.Rng.t -> Ft_params.t -> t
(** @raise Invalid_argument when {!Ft_params.validate} rejects. *)

val stage_census : t -> (string * int * int) list
(** (stage label, vertex count, outgoing switch count) rows — the Fig. 5
    composition audit of experiment F5. *)
