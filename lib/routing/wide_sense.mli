(** Wide-sense nonblocking operation (Feldman, Friedman & Pippenger [FFP],
    cited in §2 and §4 of the paper).

    A network is {e wide-sense} nonblocking when some routing {e strategy}
    can serve every adversarial sequence of call and hang-up requests —
    weaker than strict nonblocking (where {e every} routing works, so the
    greedy strategy suffices) but stronger than rearrangeable.

    This module pits a pluggable strategy against a randomised adversary
    of calls and hang-ups and counts the calls it blocks. *)

type state = {
  net : Ftcsn_networks.Network.t;
  busy : Ftcsn_util.Bitset.t;  (** vertices used by established calls *)
  calls : (int * int * int list) list;  (** (input idx, output idx, path) *)
}

type strategy = state -> input:int -> output:int -> int list option
(** Given the current state and an idle request (terminal indices), pick a
    path of currently-idle vertices (including both terminal vertices) or
    give up.  The driver validates the returned path. *)

val greedy_strategy : strategy
(** Shortest idle path (BFS). *)

val packing_strategy : strategy
(** Prefer the idle path whose interior vertices have the fewest idle
    alternatives ("pack" heavily-shared middles last).  Implemented as
    best-of-all-shortest via per-middle scoring on 3-stage networks and
    falling back to BFS elsewhere. *)

val validate_path :
  Ftcsn_networks.Network.t -> Ftcsn_util.Bitset.t -> input:int -> output:int ->
  int list -> bool
(** [validate_path net busy ~input ~output path]: [path] runs along edges
    from the input's vertex to the output's and touches no vertex of
    [busy] — the check {!stress} applies to each strategy answer. *)

val stress :
  steps:int ->
  rng:Ftcsn_prng.Rng.t ->
  strategy ->
  Ftcsn_networks.Network.t ->
  int * int
(** Randomised adversary; returns (offered, blocked). *)
