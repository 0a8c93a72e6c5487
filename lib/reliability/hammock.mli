(** Moore–Shannon hammocks: two-terminal (l, w) grid fabrics.

    The paper's directed grids (§6, Fig. 4) are "based on the hammock of
    Moore and Shannon".  A hammock here is an (l, w) directed grid — l rows,
    w stages, edges from (i, j) to (i, j+1) and to (i+1 mod l, j+1) — with a
    single input feeding every stage-0 vertex and every last-stage vertex
    draining to a single output.  Unlike {!Sp_network} these are not
    series-parallel, so their reliability is measured by Monte-Carlo
    rather than computed by recurrence; experiment E1
    compares both families. *)

type t = {
  graph : Ftcsn_graph.Digraph.t;
  input : int;
  output : int;
  rows : int;
  width : int;
}

val make : rows:int -> width:int -> t
(** @raise Invalid_argument unless [rows >= 1 && width >= 1]. *)

val open_failure_prob :
  ?jobs:int ->
  ?target_ci:float ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  t ->
  Monte_carlo.estimate
(** Monte-Carlo estimate of P[no input→output path survives] at
    ε₁ = ε₂ = ε.  [jobs]/[target_ci]/[progress]/[trace] as in
    {!Monte_carlo.estimate}. *)

val short_failure_prob :
  ?jobs:int ->
  ?target_ci:float ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?trace:Ftcsn_obs.Trace.sink ->
  trials:int ->
  rng:Ftcsn_prng.Rng.t ->
  eps:float ->
  t ->
  Monte_carlo.estimate
(** Monte-Carlo estimate of P[input and output contract]. *)

val size : t -> int

val depth : t -> int
