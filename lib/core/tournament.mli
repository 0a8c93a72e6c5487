(** The reliability-per-edge tournament: every registered topology
    family raced through the same fault-survival sweep and the same
    call-traffic workload, scored on fault tolerance per switch.

    For each family in {!Ftcsn_networks.Topology} (the [ft] family is
    installed first), the tournament builds the network at a common
    requested n, then measures

    - the coupled survival curve {!Pipeline.survival_curve} over an ε
      grid with the class-fair {!Pipeline.sc_probe_only} probes, and
    - steady-state blocking under {!Ftcsn_des.Traffic} with failure
      and repair clocks running,

    and reports edges per terminal (size / n) next to both.  An entry
    is on the Pareto front when no other entry has at most its edge
    cost {e and} at least its survival probability at the harshest
    grid ε (one strictly better).

    Seeds come from {!Seeds} ([network], [curve] and [traffic]), as in
    [ftnet], so a tournament row is reproducible with
    [ftnet curve --net F] and [ftnet traffic --net F] at the same
    seed, n and trial counts. *)

type entry = {
  gen : Ftcsn_networks.Topology.gen;
  spec : string;  (** canonical spec the row was built from *)
  net_name : string;
  n : int;  (** effective terminals *)
  n_requested : int;
  size : int;
  depth : int;
  edges_per_terminal : float;
  survival : Ftcsn_reliability.Monte_carlo.estimate array;
      (** one per ε grid point, CRN-coupled *)
  blocking_mean : float;
  blocking_ci_low : float;
  blocking_ci_high : float;
  catastrophes : int;  (** traffic replications ending in Lemma 7 *)
  pareto : bool;
}

type outcome = {
  eps : float array;
  entries : entry list;  (** sorted by edges_per_terminal *)
  skipped : (string * string) list;  (** (family, reason) build refusals *)
}

val run :
  ?jobs:int ->
  ?trace:Ftcsn_obs.Trace.sink ->
  ?progress:(Ftcsn_sim.Trials.progress -> unit) ->
  ?note:(string -> unit) ->
  ?load:float ->
  ?mtbf:float ->
  ?mttr:float ->
  trials:int ->
  eps:float array ->
  traffic_trials:int ->
  calls:int ->
  warmup:int ->
  n:int ->
  seed:int ->
  unit ->
  outcome
(** [note] is called with each family name as its sweep starts.
    [load] is the offered traffic in Erlangs (default: effective
    n / 4, scaling the workload with the network); [mtbf] / [mttr]
    are the per-switch failure and repair means of the traffic phase
    (defaults 500 and 10). *)

val to_table : outcome -> Ftcsn_util.Table.t
(** Families as rows: n, size, depth, edges/terminal, survival at the
    mildest and harshest ε, blocking, and a [*] Pareto-front marker. *)

val to_json : outcome -> Ftcsn_obs.Json.t
